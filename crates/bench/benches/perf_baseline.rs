//! PR-4 pinned performance baseline: the before/after pair of that PR's
//! one optimisation that still keeps a reference kernel, measured against
//! it.
//!
//! * Zone membership — the `nodes_in` tree walk
//!   ([`CanOverlay::nodes_in_scan`]) vs the incremental Morton index.
//!
//! (The soft-state pairs — hosted lookup, expiry sweep — and the Dijkstra
//! landmark-probe pair are gone with their kernels: the pinned `SpCache`
//! hit no longer exists, `shortest_paths_scan` is a test oracle, and
//! `benchmark/`'s `churn_mix` / `fig_build` workloads with their
//! `softstate.*` / `topology.read_hit_ns` trace rows are those layers'
//! ledger. PR 4's numbers stay in EXPERIMENTS.md.)
//!
//! Under `cargo bench … -- --bench` the before/after medians are also
//! written to `results/BENCH_04.json`; under `cargo test` everything runs
//! once as a smoke check and nothing is written.

use tao_util::bench::{bench_fn_captured, black_box, results_path, BenchResult};
use tao_util::rand::rngs::StdRng;
use tao_util::rand::SeedableRng;

use tao_overlay::{CanOverlay, Point, Zone};
use tao_topology::NodeIdx;

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
    let comparisons: Vec<Comparison> = bench_nodes_in().into_iter().collect();
    // Smoke mode (cargo test) captures nothing and must write nothing.
    if !comparisons.is_empty() {
        write_bench_04(&comparisons);
    }
}
