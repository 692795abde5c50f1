//! PR-4 pinned performance baseline: before/after pairs for the two
//! optimisations of that PR that still keep a reference kernel, each
//! measured against it.
//!
//! * Dijkstra landmark probes — recomputing the source vector per probe
//!   (what a capacity-flushed cache cost before `warm()` pinning) vs a
//!   pinned single-flight [`SpCache`] hit. The raw adjacency-vs-CSR
//!   kernels are also timed and land in `results/bench.jsonl`.
//! * Zone membership — the `nodes_in` tree walk
//!   ([`CanOverlay::nodes_in_scan`]) vs the incremental Morton index.
//!
//! (The soft-state pairs — hosted lookup, expiry sweep — are gone with
//! their public reference kernels; `benchmark/`'s `churn_mix` workload and
//! its `softstate.*` trace rows are that layer's ledger, and PR 4's numbers
//! stay in EXPERIMENTS.md.)
//!
//! Under `cargo bench … -- --bench` the before/after medians are also
//! written to `results/BENCH_04.json`; under `cargo test` everything runs
//! once as a smoke check and nothing is written.

use tao_util::bench::{bench_fn, bench_fn_captured, black_box, results_path, BenchResult};
use tao_util::rand::rngs::StdRng;
use tao_util::rand::SeedableRng;

use tao_overlay::{CanOverlay, Point, Zone};
use tao_topology::{
    generate_transit_stub, shortest_paths, shortest_paths_scan, LatencyAssignment, NodeIdx,
    SpCache, TransitStubParams,
};

/// One optimisation's before/after medians.
struct Comparison {
    name: &'static str,
    before: BenchResult,
    after: BenchResult,
}

fn grown_can(n: usize, dims: usize, seed: u64) -> CanOverlay {
    let mut can = CanOverlay::new(dims).expect("dims >= 1");
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        can.join(NodeIdx(i as u32), Point::random(dims, &mut rng));
    }
    can
}

fn pair(
    name: &'static str,
    before: Option<BenchResult>,
    after: Option<BenchResult>,
) -> Option<Comparison> {
    Some(Comparison {
        name,
        before: before?,
        after: after?,
    })
}

fn bench_dijkstra() -> Option<Comparison> {
    let topo = generate_transit_stub(
        &TransitStubParams::tsk_large_mini(),
        LatencyAssignment::gt_itm(),
        7,
    );
    let g = topo.graph();
    // The raw kernels, for the trajectory log: nested adjacency lists vs
    // the flat CSR stream (same asymptotics, better locality).
    bench_fn("dijkstra_adjacency_scan", || {
        black_box(shortest_paths_scan(g, black_box(NodeIdx(0))));
    });
    bench_fn("dijkstra_csr", || {
        black_box(shortest_paths(g, black_box(NodeIdx(0))));
    });
    // The workload pair: a landmark probe before this PR re-ran Dijkstra
    // whenever churn flushed the landmark's vector out of the capacity-
    // bounded cache; `warm()` pins now survive flushes, so the probe is a
    // cache hit.
    let landmark = NodeIdx(5);
    let probe = NodeIdx(777);
    let before = bench_fn_captured("landmark_probe_recompute", || {
        let v = shortest_paths_scan(g, black_box(landmark));
        black_box(v[probe.index()]);
    });
    let cache = SpCache::new();
    cache.warm(g, &[landmark]);
    let after = bench_fn_captured("landmark_probe_pinned_cache", || {
        black_box(cache.distance(g, black_box(landmark), black_box(probe)));
    });
    pair("dijkstra_landmark_probe", before, after)
}

fn bench_nodes_in() -> Option<Comparison> {
    let can = grown_can(4096, 2, 11);
    // A level-2 aligned cube: the exact query shape the eCAN high-order
    // routing and the global-state selector issue.
    let query = Zone::from_bounds(vec![0.25, 0.5], vec![0.5, 0.75]).expect("valid cube");
    let before = bench_fn_captured("nodes_in_tree_walk", || {
        black_box(can.nodes_in_scan(black_box(&query)));
    });
    let after = bench_fn_captured("nodes_in_morton_index", || {
        black_box(can.nodes_in(black_box(&query)));
    });
    pair("nodes_in", before, after)
}

fn write_bench_04(comparisons: &[Comparison]) {
    let mut body = String::from("{\n  \"pr\": 4,\n  \"comparisons\": [\n");
    for (i, c) in comparisons.iter().enumerate() {
        let sep = if i + 1 == comparisons.len() { "" } else { "," };
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"before\": \"{}\", \"after\": \"{}\", \
             \"before_median_ns\": {:.1}, \"after_median_ns\": {:.1}, \
             \"speedup\": {:.2}}}{sep}\n",
            c.name,
            c.before.name,
            c.after.name,
            c.before.median_ns,
            c.after.median_ns,
            c.before.median_ns / c.after.median_ns.max(1e-9),
        ));
    }
    body.push_str("  ]\n}\n");
    let path = results_path("BENCH_04.json");
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("perf_baseline: could not write {}: {e}", path.display());
    } else {
        println!("perf_baseline: wrote {}", path.display());
    }
}

fn main() {
    let comparisons: Vec<Comparison> = [
        bench_dijkstra(),
        bench_nodes_in(),
    ]
    .into_iter()
    .flatten()
    .collect();
    // Smoke mode (cargo test) captures nothing and must write nothing.
    if !comparisons.is_empty() {
        write_bench_04(&comparisons);
    }
}
