//! Shared plumbing for the figure-regeneration binaries.
//!
//! Every binary honours the `TAO_SCALE` environment variable:
//!
//! * `paper` (default) — the paper's scale: ~10,000-router topologies,
//!   1,024-node overlays, 100 query nodes, 2N measured routes.
//! * `mini` — ~1/10 scale for smoke runs and CI.
//!
//! Output format is one whitespace-aligned table per figure, with the same
//! rows/series the paper plots; see `EXPERIMENTS.md` for the recorded runs.

#![forbid(unsafe_code)]
#![warn(
    missing_docs,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::allow_attributes_without_reason
)]

use tao_core::ExperimentParams;
use tao_topology::TransitStubParams;

pub mod dv;
pub mod replay;

pub use tao_util::par::{par_map, workers};

/// Experiment scale, selected via the `TAO_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's scale (~10k routers, 1,024-node overlays).
    Paper,
    /// Roughly 1/10 scale, for smoke tests.
    Mini,
}

impl Scale {
    /// Reads `TAO_SCALE` (`paper` | `mini`), defaulting to `Paper`.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognised value, listing the accepted ones.
    pub fn from_env() -> Scale {
        match std::env::var("TAO_SCALE").as_deref() {
            Err(_) | Ok("paper") | Ok("") => Scale::Paper,
            Ok("mini") => Scale::Mini,
            Ok(other) => panic!("TAO_SCALE must be `paper` or `mini`, got `{other}`"),
        }
    }

    /// The `tsk-large` topology at this scale.
    pub fn tsk_large(self) -> TransitStubParams {
        match self {
            Scale::Paper => TransitStubParams::tsk_large(),
            Scale::Mini => TransitStubParams::tsk_large_mini(),
        }
    }

    /// The `tsk-small` topology at this scale.
    pub fn tsk_small(self) -> TransitStubParams {
        match self {
            Scale::Paper => TransitStubParams::tsk_small(),
            Scale::Mini => TransitStubParams::tsk_small_mini(),
        }
    }

    /// Default experiment parameters at this scale.
    pub fn base_params(self) -> ExperimentParams {
        match self {
            Scale::Paper => ExperimentParams::default(),
            Scale::Mini => ExperimentParams {
                overlay_nodes: 256,
                ..Default::default()
            },
        }
    }

    /// Number of query nodes for the nearest-neighbor experiments.
    pub fn query_nodes(self) -> usize {
        match self {
            Scale::Paper => 100,
            Scale::Mini => 30,
        }
    }
}

/// Renders a whitespace-aligned table (leading blank line included) as a
/// `String` — exactly what [`print_table`] emits. Sweeps that must prove
/// byte-identical output across worker counts build their report through
/// this and print once.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
pub fn format_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = format!("\n# {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&head));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Prints a whitespace-aligned table: a header row, then one row per entry.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", format_table(title, headers, rows));
}

/// Formats an `f64` with three decimals (common cell format).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Everything the figure-14/15 sweep needs. The binary fills this from
/// the `TAO_SCALE` presets; the worker-determinism test feeds it a
/// miniature topology so the full pipeline runs in milliseconds.
#[derive(Debug, Clone)]
pub struct Fig1415Spec {
    /// The tsk-large topology preset.
    pub large: TransitStubParams,
    /// The tsk-small topology preset.
    pub small: TransitStubParams,
    /// Base experiment parameters (overlay size is overridden per row).
    pub base: ExperimentParams,
    /// Overlay sizes to sweep.
    pub sizes: Vec<usize>,
}

impl Fig1415Spec {
    /// The spec the `fig14_15_stretch_vs_nodes` binary runs at `scale`.
    pub fn at_scale(scale: Scale) -> Fig1415Spec {
        Fig1415Spec {
            large: scale.tsk_large(),
            small: scale.tsk_small(),
            base: scale.base_params(),
            sizes: match scale {
                Scale::Paper => vec![256, 512, 1_024, 2_048, 4_096],
                Scale::Mini => vec![128, 256, 512],
            },
        }
    }
}

/// Runs the figures 14–15 sweep and renders both tables.
///
/// The returned string is what the binary prints to stdout; it is a pure
/// function of `spec` — `workers` only fans the seeded runs out over
/// threads, so any two worker counts yield byte-identical reports.
pub fn fig14_15_report(spec: &Fig1415Spec, workers: usize) -> String {
    use tao_core::experiment::{stretch_vs_nodes, topology_for};
    use tao_topology::LatencyAssignment;
    let figures = [
        (
            "Figure 14: latencies set by GT-ITM",
            LatencyAssignment::gt_itm(),
        ),
        (
            "Figure 15: latencies set manually",
            LatencyAssignment::manual(),
        ),
    ];
    let mut out = String::new();
    for (f, (title, latency)) in figures.into_iter().enumerate() {
        eprintln!("fig14/15: running {title}…");
        let large = topology_for(&spec.large, latency, 40 + f as u64);
        let rows_large = stretch_vs_nodes(&large, spec.base, &spec.sizes, 60 + f as u64, workers);
        drop(large);
        let small = topology_for(&spec.small, latency, 50 + f as u64);
        let rows_small = stretch_vs_nodes(&small, spec.base, &spec.sizes, 70 + f as u64, workers);
        drop(small);
        let table: Vec<Vec<String>> = spec
            .sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                vec![
                    n.to_string(),
                    f3(rows_large[i].aware),
                    f3(rows_small[i].aware),
                    f3(rows_large[i].random),
                    f3(rows_small[i].random),
                ]
            })
            .collect();
        out.push_str(&format_table(
            title,
            &[
                "nodes",
                "large transit",
                "small transit",
                "large (random)",
                "small (random)",
            ],
            &table,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_pick_matching_presets() {
        assert_eq!(Scale::Paper.tsk_large().total_nodes(), 10_016);
        assert!(Scale::Mini.tsk_large().total_nodes() < 2_000);
        assert_eq!(Scale::Paper.base_params().overlay_nodes, 1024);
        assert_eq!(Scale::Mini.base_params().overlay_nodes, 256);
    }

    #[test]
    fn f3_formats() {
        assert_eq!(f3(1.23456), "1.235");
    }

    #[test]
    fn format_table_matches_the_printed_layout() {
        let s = format_table("t", &["a", "bbb"], &[vec!["10".into(), "2".into()]]);
        assert_eq!(s, "\n# t\n a  bbb\n10    2\n");
    }

    #[test]
    fn fig14_15_mini_report_is_byte_identical_across_worker_counts() {
        // The full figure pipeline at toy scale: parallel scheduling must
        // leave no trace in the rendered stdout report.
        let mini = TransitStubParams::tsk_small_mini();
        let spec = Fig1415Spec {
            large: mini,
            small: mini,
            base: ExperimentParams {
                overlay_nodes: 64,
                landmarks: 5,
                rtt_budget: 2,
                ..Default::default()
            },
            sizes: vec![48, 64],
        };
        let one = fig14_15_report(&spec, 1);
        let eight = fig14_15_report(&spec, 8);
        assert_eq!(one, eight, "worker count leaked into the report");
        assert!(one.contains("Figure 14") && one.contains("Figure 15"));
    }
}
