//! Experiment parameters — the paper's Table 2.
//!
//! | Parameter          | Default | Range        |
//! |--------------------|---------|--------------|
//! | # overlay nodes    | 1024    | 256 – 4096   |
//! | # landmarks        | 15      | 5 – 30       |
//! | # RTT measurements | 10      | 1 – 40       |
//! | map condense rate  | 1/4     | 1/64 – 1     |
//!
//! (Digits were lost in the source scan; these are the reconstructions
//! recorded in `DESIGN.md`, chosen to keep every experiment laptop-scale
//! while preserving the paper's shape.)

/// How eCAN expressway representatives are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SelectionStrategy {
    /// A random member (`RandomSelector`), the baseline of figures 14–15:
    /// on eCAN volume-weighted, drawn without listing the box; on Chord and
    /// Pastry uniform over the slot's listed members.
    Random,
    /// The paper's contribution: consult the target zone's soft-state map,
    /// RTT-probe the top-X candidates, pick the closest.
    #[default]
    GlobalState,
    /// The unattainable optimum: the physically closest member, found with
    /// free ground-truth distances ("number of RTT measurements is
    /// infinity").
    Optimal,
}

/// The full parameter set of one experiment run (Table 2 plus the knobs the
/// paper fixes in prose).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentParams {
    /// Number of overlay nodes (default 1024).
    pub overlay_nodes: usize,
    /// Number of landmark routers (default 15).
    pub landmarks: usize,
    /// RTT measurements per neighbor selection — the paper's X (default 10).
    pub rtt_budget: usize,
    /// Map condense rate (default 1/4).
    pub condense_rate: f64,
    /// Landmark-vector index: how many vector components feed the landmark
    /// number (default 3; the full vector still ranks candidates).
    pub landmark_vector_index: usize,
    /// Grid resolution: bits per landmark-space axis (default 5 → 32 cells).
    pub grid_bits: u32,
    /// Overlay dimensionality (default 2, as in the paper's eCAN).
    pub dims: usize,
    /// Neighbor-selection strategy.
    pub selection: SelectionStrategy,
}

impl Default for ExperimentParams {
    fn default() -> Self {
        ExperimentParams {
            overlay_nodes: 1024,
            landmarks: 15,
            rtt_budget: 10,
            condense_rate: 0.25,
            landmark_vector_index: 3,
            grid_bits: 5,
            dims: 2,
            selection: SelectionStrategy::GlobalState,
        }
    }
}

impl ExperimentParams {
    /// Validates the parameter combination.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first invalid field.
    pub fn validate(&self) {
        assert!(self.overlay_nodes >= 2, "need at least 2 overlay nodes");
        assert!(self.landmarks >= 1, "need at least 1 landmark");
        assert!(self.rtt_budget >= 1, "need at least 1 RTT measurement");
        assert!(
            self.condense_rate > 0.0 && self.condense_rate <= 1.0,
            "condense rate must be in (0, 1]"
        );
        assert!(
            self.landmark_vector_index >= 1 && self.landmark_vector_index <= self.landmarks,
            "landmark vector index must be in 1..=landmarks"
        );
        assert!(
            (1..=16).contains(&self.grid_bits),
            "grid bits must be in 1..=16"
        );
        assert!(self.dims >= 2, "eCAN needs at least 2 dimensions");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_match_table_2() {
        let p = ExperimentParams::default();
        p.validate();
        assert_eq!(p.overlay_nodes, 1024);
        assert_eq!(p.landmarks, 15);
        assert_eq!(p.rtt_budget, 10);
        assert!((p.condense_rate - 0.25).abs() < 1e-12);
        assert_eq!(p.selection, SelectionStrategy::GlobalState);
    }

    #[test]
    #[should_panic(expected = "landmark vector index")]
    fn lvi_cannot_exceed_landmark_count() {
        let p = ExperimentParams {
            landmarks: 2,
            landmark_vector_index: 3,
            ..Default::default()
        };
        p.validate();
    }

    #[test]
    #[should_panic(expected = "condense rate")]
    fn condense_rate_is_bounded() {
        let p = ExperimentParams {
            condense_rate: 1.5,
            ..Default::default()
        };
        p.validate();
    }

    #[test]
    fn strategies_have_distinct_identities() {
        assert_ne!(SelectionStrategy::Random, SelectionStrategy::GlobalState);
        assert_eq!(SelectionStrategy::default(), SelectionStrategy::GlobalState);
    }
}
