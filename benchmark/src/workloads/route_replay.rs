//! `route_replay`: both uses of the routing layer against one built
//! system. Set-up builds an N = 4096 GlobalState overlay (which leaves
//! every participant's shortest-path vector cached). Each round then runs
//!
//! * phase `fast`: 2^14 requests through `EcanOverlay::route_express_into`
//!   with one reused `RouteScratch` — half uniform targets, half
//!   Zipf-hotspot targets (8 hotspots, 80 %, spread 0.05, as in
//!   `sec6_replay`);
//! * phase `stretch`: `measure_routing_stretch(4096)` — the allocating
//!   `route_express` every figure binary still calls, plus ~6 warm
//!   `ground_truth` reads per route.
//!
//! Rounds are short (~80 ms, ~190 a run) on purpose: a spell of
//! interference then spoils whole rounds and leaves the others clean.
//!
//! `overlay` routing does all the work in `fast`; `stretch` is the other
//! use of the same layer. A change that folds `route()` into
//! `route_into`, or adds a counter to the hot path, has one phase that
//! shows it and one that must not move. `softstate` and `sim` idle.

use std::time::Instant;

use tao_core::{ExperimentParams, TaoBuilder, TopologyAwareOverlay};
use tao_overlay::ecan::EcanOverlay;
use tao_overlay::{OverlayNodeId, Point, RouteScratch};
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

use crate::harness::{mix, run_rounds, timed_setup, Checks, Config, EndToEnd, Fnv, Report, Scale};
use crate::stats;
use crate::trace::{Sp, Tracer};
use crate::traced;
use crate::workloads::{refuse_trace, topology, FIXTURE_SEED};

const HOTSPOTS: usize = 8;
const HOTSPOT_PROB: f64 = 0.8;
const HOTSPOT_SPREAD: f64 = 0.05;
/// Pre-generated request batches; round k replays batch k mod this.
const BATCHES: usize = 32;

struct Sizes {
    nodes: usize,
    /// Requests per kind (uniform, hotspot) per round.
    requests: usize,
    /// Requests per timed chunk; a burst is one chunk of each kind.
    chunk: usize,
    stretch_routes: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            nodes: 4096,
            requests: 1 << 13,
            chunk: 1024,
            stretch_routes: 4096,
        },
        Scale::Smoke => Sizes {
            nodes: 256,
            requests: 1 << 10,
            chunk: 256,
            stretch_routes: 512,
        },
    }
}

type Request = (OverlayNodeId, Point);

/// One round's pre-generated requests.
struct Batch {
    uniform: Vec<Request>,
    hotspot: Vec<Request>,
}

struct Fixture {
    tao: TopologyAwareOverlay,
    batches: Vec<Batch>,
}

/// Uniform sources; targets uniform, or Zipf-ranked hotspot boxes.
fn generate_batch(live: &[OverlayNodeId], dims: usize, requests: usize, seed: u64) -> Batch {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Point> = (0..HOTSPOTS)
        .map(|_| Point::random(dims, &mut rng))
        .collect();
    let weights: Vec<f64> = (1..=HOTSPOTS).map(|rank| 1.0 / rank as f64).collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let source = |rng: &mut StdRng| live[rng.gen_range(0..live.len())];
    let uniform = (0..requests)
        .map(|_| (source(&mut rng), Point::random(dims, &mut rng)))
        .collect();
    let hotspot = (0..requests)
        .map(|_| {
            let src = source(&mut rng);
            if !rng.gen_bool(HOTSPOT_PROB) {
                return (src, Point::random(dims, &mut rng));
            }
            let draw: f64 = rng.gen();
            let center = &centers[cdf.iter().position(|&c| draw < c).unwrap_or(HOTSPOTS - 1)];
            let coords = (0..dims)
                .map(|axis| {
                    (center.coord(axis) + rng.gen_range(-HOTSPOT_SPREAD..HOTSPOT_SPREAD))
                        .rem_euclid(1.0)
                })
                .collect();
            (src, Point::clamped(coords))
        })
        .collect();
    Batch { uniform, hotspot }
}

/// Simulated statistics and timings of one round.
struct Round {
    fingerprint: u64,
    fast_s: f64,
    /// Wall time of each burst: chunk i of the uniform requests plus
    /// chunk i of the hotspot requests.
    bursts_s: Vec<f64>,
    stretch_s: f64,
    hops: u64,
    stretch_mean: f64,
}

/// Routes `requests` in timed chunks; returns total hops and errors.
fn replay(
    tr: &Tracer,
    sp: Sp,
    ecan: &EcanOverlay,
    scratch: &mut RouteScratch,
    requests: &[Request],
    chunk: usize,
    chunk_s: &mut Vec<f64>,
) -> (u64, u64) {
    let (mut hops, mut errors) = (0u64, 0u64);
    for part in requests.chunks(chunk) {
        let t = Instant::now();
        for (src, target) in part {
            match tr.op(sp, || ecan.route_express_into(scratch, *src, target)) {
                Ok(()) => hops += scratch.hop_count() as u64,
                Err(_) => errors += 1,
            }
        }
        chunk_s.push(t.elapsed().as_secs_f64());
    }
    (hops, errors)
}

fn round(tr: &Tracer, fx: &Fixture, sz: &Sizes, seed: u64, k: usize, checks: &mut Checks) -> Round {
    let batch = &fx.batches[k % BATCHES];
    let ecan = fx.tao.ecan();
    let mut scratch = RouteScratch::new();
    let (mut uniform_s, mut hotspot_s) = (Vec::new(), Vec::new());
    let (hops_u, err_u) = replay(
        tr,
        Sp::OvRouteInto,
        ecan,
        &mut scratch,
        &batch.uniform,
        sz.chunk,
        &mut uniform_s,
    );
    let (hops_h, err_h) = replay(
        tr,
        Sp::OvRouteIntoHotspot,
        ecan,
        &mut scratch,
        &batch.hotspot,
        sz.chunk,
        &mut hotspot_s,
    );
    let bursts_s: Vec<f64> = uniform_s
        .iter()
        .zip(&hotspot_s)
        .map(|(u, h)| u + h)
        .collect();

    let stretch_seed = mix(seed, 5, k as u64);
    let t = Instant::now();
    let summary = if tr.enabled() {
        let dims = fx.tao.params().dims;
        traced::measure_routing_stretch(
            tr,
            ecan,
            fx.tao.oracle(),
            dims,
            sz.stretch_routes,
            stretch_seed,
            checks,
        )
        .0
    } else {
        fx.tao
            .measure_routing_stretch(sz.stretch_routes, stretch_seed)
    };
    let stretch_s = t.elapsed().as_secs_f64();

    // Output checks: a routed request must not fail; stretch is ≥ 1 and
    // nearly every pair yields a sample.
    checks.add(2 * sz.requests as u64, err_u + err_h);
    checks.check(summary.min() >= 1.0 - 1e-9);
    checks.check(summary.count() * 10 >= sz.stretch_routes * 9);

    Round {
        fingerprint: Fnv::new()
            .u64(hops_u)
            .u64(hops_h)
            .u64(err_u + err_h)
            .f64(summary.mean())
            .u64(summary.count() as u64)
            .finish(),
        fast_s: bursts_s.iter().sum(),
        bursts_s,
        stretch_s,
        hops: hops_u + hops_h,
        stretch_mean: summary.mean(),
    }
}

/// The untimed verification pass: over one batch, `route_express_into`
/// must end at the target's owner and take exactly the hops of the
/// allocating `route_express`.
fn verify(fx: &Fixture, checks: &mut Checks) {
    let ecan = fx.tao.ecan();
    let mut scratch = RouteScratch::new();
    let batch = &fx.batches[0];
    for (src, target) in batch.uniform.iter().chain(&batch.hotspot) {
        let fast = ecan.route_express_into(&mut scratch, *src, target);
        let reference = ecan.route_express(*src, target);
        checks.check(match (fast, reference) {
            (Ok(()), Ok(route)) => {
                scratch.hops() == route.hops.as_slice()
                    && route
                        .hops
                        .last()
                        .is_some_and(|&last| ecan.can().owns_point(last, target) == Ok(true))
            }
            _ => false,
        });
    }
}

pub fn run(cfg: &Config, tr: &Tracer) -> Report {
    let sz = sizes(cfg.scale);
    let params = ExperimentParams {
        overlay_nodes: sz.nodes,
        ..ExperimentParams::default()
    };

    // Set-up: the fixture (topology + built system) and, from `--seed`,
    // every request of every batch. Seconds long, so one repetition is
    // steady enough.
    let (fx, setup_s) = timed_setup(|| {
        let mut builder = TaoBuilder::new();
        builder.params(params).seed(FIXTURE_SEED);
        let tao = tr.span(Sp::CoreBuildOn, || builder.build_on(topology(cfg.scale)));
        let live: Vec<OverlayNodeId> = tao.ecan().can().live_nodes().collect();
        let batches = (0..BATCHES)
            .map(|b| generate_batch(&live, params.dims, sz.requests, mix(cfg.seed, 3, b as u64)))
            .collect();
        Fixture { tao, batches }
    });
    tr.end_setup();

    let mut report = Report {
        setup_s,
        ..Report::default()
    };
    let mut checks = Checks::default();
    let (mut fast_rates, mut stretch_rates, mut bursts_s, mut burst_p50_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut hops, mut stretch_sum) = (0u64, 0.0);
    let mut reference_round_s = 0.0;
    let mut traced_round_s = Vec::new();

    let wall = Instant::now();
    report.rounds = run_rounds(cfg.measure, |k| {
        if tr.enabled() && k == 0 {
            // Reference: the same round with the recorder off.
            let r = round(
                &Tracer::new(false),
                &fx,
                &sz,
                cfg.seed,
                0,
                &mut Checks::default(),
            );
            reference_round_s = r.fast_s + r.stretch_s;
            report.fingerprints.push(r.fingerprint);
        }
        tr.set_op(k as u32);
        let r = tr.span(Sp::Round, || round(tr, &fx, &sz, cfg.seed, k, &mut checks));
        if tr.enabled() && k == 0 {
            if r.fingerprint != report.fingerprints[0] {
                refuse_trace("route_replay", report.fingerprints[0], r.fingerprint);
            }
        } else {
            report.fingerprints.push(r.fingerprint);
        }
        fast_rates.push(stats::rate(2 * sz.requests, r.fast_s));
        stretch_rates.push(stats::rate(sz.stretch_routes, r.stretch_s));
        traced_round_s.push(r.fast_s + r.stretch_s);
        burst_p50_s.push(stats::median(&r.bursts_s));
        bursts_s.extend(r.bursts_s);
        hops += r.hops;
        stretch_sum += r.stretch_mean;
    });
    report.wall_s = wall.elapsed().as_secs_f64();
    verify(&fx, &mut checks);
    report.checks = checks;
    report.end_to_end = EndToEnd::from_rounds(&fast_rates, &stretch_rates, &burst_p50_s);
    report.note("route_req_per_s", report.end_to_end.primary_per_s, "1/s");
    report.note(
        "stretch_routes_per_s",
        report.end_to_end.secondary_per_s,
        "1/s",
    );
    report.note("bursts", bursts_s.len() as f64, "count");
    report.note(
        "burst_p95_ms",
        stats::percentile(&bursts_s, 0.95) * 1e3,
        "ms",
    );

    if tr.enabled() {
        let rounds = report.rounds as f64;
        report.layer(
            "trace.overhead_pct",
            100.0 * (stats::median(&traced_round_s) / reference_round_s - 1.0),
        );
        report.layer(
            "overlay.hops_per_route",
            hops as f64 / (rounds * 2.0 * sz.requests as f64),
        );
        report.layer("overlay.route_errors", report.checks.failed as f64);
        report.layer("core.stretch_mean", stretch_sum / rounds);
        report.layer("topology.probes", fx.tao.oracle().measurements() as f64);
        report.layer("softstate.entries", fx.tao.state().total_entries() as f64);
    }
    report
}
