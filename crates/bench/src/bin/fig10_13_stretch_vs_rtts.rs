//! Figures 10–13: routing stretch versus number of RTT measurements, with
//! landmarks ∈ {5, 15} plus the optimal curve, across the four panels
//! (tsk-large / tsk-small) × (GT-ITM / manual latencies).
//!
//! Expected shape: stretch falls as the RTT budget grows, approaching the
//! optimal floor; more landmarks help more on manual-latency topologies;
//! tsk-small sits closer to its optimum than tsk-large.

use tao_bench::{f3, print_table, Scale};
use tao_core::experiment::{stretch_vs_rtts, topology_for};
use tao_topology::LatencyAssignment;

const LANDMARK_COUNTS: &[usize] = &[5, 15];
const RTT_BUDGETS: &[usize] = &[1, 2, 5, 10, 20, 40];

fn main() {
    let scale = Scale::from_env();
    let base = scale.base_params();
    let panels = [
        (
            "Figure 10: tsk-large, GT-ITM latencies",
            scale.tsk_large(),
            LatencyAssignment::gt_itm(),
        ),
        (
            "Figure 11: tsk-large, manual latencies",
            scale.tsk_large(),
            LatencyAssignment::manual(),
        ),
        (
            "Figure 12: tsk-small, GT-ITM latencies",
            scale.tsk_small(),
            LatencyAssignment::gt_itm(),
        ),
        (
            "Figure 13: tsk-small, manual latencies",
            scale.tsk_small(),
            LatencyAssignment::manual(),
        ),
    ];
    let workers = tao_bench::workers();
    for (i, (title, params, latency)) in panels.into_iter().enumerate() {
        eprintln!("fig10-13: running panel {i}…");
        let topo = topology_for(&params, latency, 20 + i as u64);
        let rows = stretch_vs_rtts(
            &topo,
            base,
            LANDMARK_COUNTS,
            RTT_BUDGETS,
            30 + i as u64,
            workers,
        );
        // Layout: one column per landmark count, the optimal as a final row.
        let optimal = rows
            .iter()
            .find(|r| r.rtts == 0)
            .expect("sweep appends the optimal row")
            .stretch;
        let mut table = Vec::new();
        for &b in RTT_BUDGETS {
            let mut row = vec![b.to_string()];
            for &lm in LANDMARK_COUNTS {
                let point = rows
                    .iter()
                    .find(|r| r.landmarks == lm && r.rtts == b)
                    .expect("sweep covers the grid");
                row.push(f3(point.stretch));
            }
            table.push(row);
        }
        table.push(vec!["optimal".to_string(), f3(optimal), f3(optimal)]);
        print_table(title, &["RTTs", "landmarks=5", "landmarks=15"], &table);
    }
}
