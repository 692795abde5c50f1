//! Experiment harnesses: the functions behind every figure the paper's
//! §5.3/§5.4 report. Each returns plain row structs so the `tao-bench`
//! binaries (and tests) can print or assert on them.

use tao_topology::{generate_transit_stub, LatencyAssignment, Topology, TransitStubParams};
use tao_util::par::par_map;

use crate::metrics::StretchSummary;
use crate::params::{ExperimentParams, SelectionStrategy};
use crate::system::TaoBuilder;

/// One point of a stretch-vs-RTT-measurements curve (figures 10–13).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StretchVsRttsRow {
    /// Number of landmarks used.
    pub landmarks: usize,
    /// RTT budget per neighbor selection (0 encodes the *optimal* curve).
    pub rtts: usize,
    /// Mean routing stretch.
    pub stretch: f64,
}

/// One point of a stretch-vs-overlay-size comparison (figures 14–15).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StretchVsNodesRow {
    /// Overlay size.
    pub nodes: usize,
    /// Mean stretch with global-state (landmark+RTT) selection.
    pub aware: f64,
    /// Mean stretch with random neighbor selection.
    pub random: f64,
}

/// One point of the condense-rate sweep (figure 16).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CondenseRow {
    /// Map condense rate.
    pub rate: f64,
    /// Mean soft-state entries hosted per node.
    pub entries_per_node: f64,
    /// Mean routing stretch at that rate.
    pub stretch: f64,
}

/// The §5.4 gap breakdown for one topology configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapBreakdown {
    /// Mean stretch with the unattainable optimum (overlay-constraint gap:
    /// this minus 1.0 is the price of the prefix/zone constraint).
    pub optimal: f64,
    /// Mean stretch with the paper's global-state selection (the second gap
    /// sits between this and `optimal`).
    pub global_state: f64,
    /// Mean stretch with random selection (what the machinery saves from).
    pub random: f64,
}

/// Number of stretch-measurement routes the paper uses: "measurements are
/// made for twice the number of nodes in the overlay".
pub fn routes_for(overlay_nodes: usize) -> usize {
    overlay_nodes * 2
}

/// Generates the topology for a named configuration (shared by the figure
/// binaries so every figure uses identical graphs).
pub fn topology_for(params: &TransitStubParams, latency: LatencyAssignment, seed: u64) -> Topology {
    generate_transit_stub(params, latency, seed)
}

/// Runs one full configuration and reports its mean stretch.
pub fn run_stretch(topology: &Topology, params: ExperimentParams, seed: u64) -> StretchSummary {
    let mut b = TaoBuilder::new();
    b.params(params).seed(seed);
    let tao = b.build_on(topology.clone());
    tao.measure_routing_stretch(routes_for(params.overlay_nodes), seed ^ 0xF00D)
}

/// Figures 10–13: sweep landmark counts and RTT budgets on one topology,
/// appending the optimal curve (encoded as `rtts = 0`).
///
/// The grid points are independent seeded runs, so they fan out over
/// `workers` threads ([`tao_util::par::par_map`]); the row order — and
/// every number in it — is identical for any worker count.
pub fn stretch_vs_rtts(
    topology: &Topology,
    base: ExperimentParams,
    landmark_counts: &[usize],
    rtt_budgets: &[usize],
    seed: u64,
    workers: usize,
) -> Vec<StretchVsRttsRow> {
    let mut grid: Vec<(usize, usize)> = Vec::new();
    for &landmarks in landmark_counts {
        for &rtts in rtt_budgets {
            grid.push((landmarks, rtts));
        }
    }
    // The optimal curve is independent of landmarks/budget; `(0, 0)`
    // encodes it as the final task.
    grid.push((0, 0));
    par_map(grid, workers, |(landmarks, rtts)| {
        let params = if landmarks == 0 {
            ExperimentParams {
                selection: SelectionStrategy::Optimal,
                ..base
            }
        } else {
            ExperimentParams {
                landmarks,
                rtt_budget: rtts,
                selection: SelectionStrategy::GlobalState,
                landmark_vector_index: base.landmark_vector_index.min(landmarks),
                ..base
            }
        };
        StretchVsRttsRow {
            landmarks,
            rtts,
            stretch: run_stretch(topology, params, seed).mean(),
        }
    })
}

/// Figures 14–15: sweep overlay sizes, comparing global-state selection
/// against the random-neighbor baseline.
///
/// Each `(size, strategy)` cell is an independent seeded run; the sweep
/// fans the cells out over `workers` threads and reassembles the rows in
/// size order, so results are byte-identical for any worker count.
pub fn stretch_vs_nodes(
    topology: &Topology,
    base: ExperimentParams,
    sizes: &[usize],
    seed: u64,
    workers: usize,
) -> Vec<StretchVsNodesRow> {
    let mut cells: Vec<(usize, SelectionStrategy)> = Vec::new();
    for &nodes in sizes {
        cells.push((nodes, SelectionStrategy::GlobalState));
        cells.push((nodes, SelectionStrategy::Random));
    }
    let means = par_map(cells, workers, |(nodes, selection)| {
        run_stretch(
            topology,
            ExperimentParams {
                overlay_nodes: nodes,
                selection,
                ..base
            },
            seed,
        )
        .mean()
    });
    sizes
        .iter()
        .zip(means.chunks_exact(2))
        .map(|(&nodes, pair)| StretchVsNodesRow {
            nodes,
            aware: pair[0],
            random: pair[1],
        })
        .collect()
}

/// Figure 16: sweep the map condense rate; report hosting burden and
/// stretch at each rate.
///
/// Rates are independent seeded runs and fan out over `workers` threads;
/// rows come back in the rates' order regardless of worker count.
pub fn condense_sweep(
    topology: &Topology,
    base: ExperimentParams,
    rates: &[f64],
    seed: u64,
    workers: usize,
) -> Vec<CondenseRow> {
    par_map(rates.to_vec(), workers, |rate| {
        let params = ExperimentParams {
            condense_rate: rate,
            selection: SelectionStrategy::GlobalState,
            ..base
        };
        let mut b = TaoBuilder::new();
        b.params(params).seed(seed);
        let tao = b.build_on(topology.clone());
        let entries_per_node = tao.state().mean_entries_per_hosting_node(tao.ecan().can());
        let stretch = tao
            .measure_routing_stretch(routes_for(params.overlay_nodes), seed ^ 0xF00D)
            .mean();
        CondenseRow {
            rate,
            entries_per_node,
            stretch,
        }
    })
}

/// §5.4: the two performance gaps — overlay constraint (optimal − 1) and
/// proximity-generation inaccuracy (global_state − optimal) — plus the
/// random baseline they are measured against. The three strategies run
/// as independent seeded tasks on up to `workers` threads.
pub fn gap_breakdown(
    topology: &Topology,
    base: ExperimentParams,
    seed: u64,
    workers: usize,
) -> GapBreakdown {
    let means = par_map(
        vec![
            SelectionStrategy::Optimal,
            SelectionStrategy::GlobalState,
            SelectionStrategy::Random,
        ],
        workers,
        |selection| run_stretch(topology, ExperimentParams { selection, ..base }, seed).mean(),
    );
    GapBreakdown {
        optimal: means[0],
        global_state: means[1],
        random: means[2],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_base() -> ExperimentParams {
        ExperimentParams {
            overlay_nodes: 128,
            landmarks: 5,
            rtt_budget: 5,
            ..Default::default()
        }
    }

    fn mini_topology() -> Topology {
        topology_for(
            &TransitStubParams::tsk_small_mini(),
            LatencyAssignment::manual(),
            77,
        )
    }

    #[test]
    fn routes_follow_the_papers_rule() {
        assert_eq!(routes_for(1024), 2048);
    }

    #[test]
    fn rtt_sweep_produces_expected_rows() {
        let topo = mini_topology();
        let rows = stretch_vs_rtts(&topo, mini_base(), &[5], &[1, 10], 1, 3);
        assert_eq!(rows.len(), 3); // 1 landmark count x 2 budgets + optimal
        assert!(rows.iter().all(|r| r.stretch >= 1.0));
        let optimal = rows.last().unwrap();
        assert_eq!(optimal.rtts, 0);
        // More measurements should not hurt (allow small noise).
        let s1 = rows[0].stretch;
        let s10 = rows[1].stretch;
        assert!(
            s10 <= s1 * 1.10,
            "10 RTTs ({s10:.3}) should be no worse than 1 RTT ({s1:.3})"
        );
    }

    #[test]
    fn node_sweep_shows_awareness_winning() {
        let topo = mini_topology();
        let rows = stretch_vs_nodes(&topo, mini_base(), &[64, 128], 2, 3);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                r.aware < r.random,
                "awareness must beat random at n={}: {:.3} vs {:.3}",
                r.nodes,
                r.aware,
                r.random
            );
        }
    }

    #[test]
    fn sweep_rows_are_identical_for_any_worker_count() {
        let topo = mini_topology();
        let seq = stretch_vs_nodes(&topo, mini_base(), &[64, 96], 5, 1);
        let par = stretch_vs_nodes(&topo, mini_base(), &[64, 96], 5, 8);
        assert_eq!(seq, par, "worker count leaked into the results");
    }

    #[test]
    fn gap_breakdown_orders_correctly() {
        let topo = mini_topology();
        let g = gap_breakdown(&topo, mini_base(), 3, 3);
        assert!(g.optimal >= 1.0);
        assert!(g.optimal <= g.global_state * 1.05);
        assert!(g.global_state < g.random);
    }

    #[test]
    fn condense_sweep_reports_hosting_burden() {
        let topo = mini_topology();
        let rows = condense_sweep(&topo, mini_base(), &[1.0, 0.125], 4, 2);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.entries_per_node > 0.0));
        // Condensing concentrates entries on fewer hosts; the mean over all
        // nodes is unchanged, but stretch must stay reasonable.
        assert!(rows.iter().all(|r| r.stretch >= 1.0 && r.stretch < 10.0));
    }
}
