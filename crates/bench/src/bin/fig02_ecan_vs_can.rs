//! Figure 2: average logical hops of basic CAN (d = 2..5) versus a
//! 2-dimensional eCAN ("EXP, D=2"), as the overlay grows.
//!
//! Expected shape: CAN hops grow like `(d/4) · N^(1/d)`; eCAN stays
//! logarithmic and beats even 5-dimensional CAN well before 10k nodes.

use tao_bench::{f3, print_table, Scale};
use tao_overlay::ecan::{EcanOverlay, RandomSelector};
use tao_overlay::{CanOverlay, OverlayNodeId, Point, RouteScratch};
use tao_topology::NodeIdx;
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

fn grown_can(n: usize, dims: usize, seed: u64) -> CanOverlay {
    let mut can = CanOverlay::new(dims).expect("dims >= 1");
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        can.join(NodeIdx(i as u32), Point::random(dims, &mut rng));
    }
    can
}

fn mean_hops(can: &CanOverlay, routes: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let live: Vec<OverlayNodeId> = can.live_nodes().collect();
    let mut total = 0usize;
    let mut counted = 0usize;
    let mut scratch = RouteScratch::new();
    for _ in 0..routes {
        let src = live[rng.gen_range(0..live.len())];
        let target = Point::random(can.dims(), &mut rng);
        if can.route_into(&mut scratch, src, &target).is_ok() {
            total += scratch.hop_count();
            counted += 1;
        }
    }
    total as f64 / counted.max(1) as f64
}

fn mean_hops_express(ecan: &EcanOverlay, routes: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let live: Vec<OverlayNodeId> = ecan.can().live_nodes().collect();
    let mut total = 0usize;
    let mut counted = 0usize;
    let mut scratch = RouteScratch::new();
    for _ in 0..routes {
        let src = live[rng.gen_range(0..live.len())];
        let target = Point::random(ecan.can().dims(), &mut rng);
        if ecan.route_express_into(&mut scratch, src, &target).is_ok() {
            total += scratch.hop_count();
            counted += 1;
        }
    }
    total as f64 / counted.max(1) as f64
}

fn main() {
    let scale = Scale::from_env();
    // A join is one split-tree descent and a member list walks only the
    // subtrees that meet its box, so the paper-scale sweep extends well
    // past the old 8,192 cap.
    let sizes: &[usize] = match scale {
        Scale::Paper => &[1_024, 2_048, 4_096, 8_192, 16_384, 32_768],
        Scale::Mini => &[256, 512, 1_024, 2_048],
    };
    const ROUTES: usize = 300;
    // One task per size; the seed derives from (master=100, task index),
    // so the table is byte-identical for any `TAO_WORKERS`.
    let tasks: Vec<(usize, usize)> = sizes.iter().copied().enumerate().collect();
    let rows = tao_bench::par_map(tasks, tao_bench::workers(), |(i, n)| {
        let seed = 100 + i as u64;
        let mut row = vec![format!("{n}")];
        for dims in 2..=5 {
            let can = grown_can(n, dims, seed);
            row.push(f3(mean_hops(&can, ROUTES, seed ^ 0xA)));
        }
        let ecan = EcanOverlay::build(grown_can(n, 2, seed), &mut RandomSelector::new(seed));
        row.push(f3(mean_hops_express(&ecan, ROUTES, seed ^ 0xB)));
        eprintln!("fig02: finished n={n}");
        row
    });
    print_table(
        "Figure 2: average logical hops, CAN (d=2..5) vs eCAN (d=2)",
        &[
            "nodes", "CAN d=2", "CAN d=3", "CAN d=4", "CAN d=5", "eCAN d=2",
        ],
        &rows,
    );
}
