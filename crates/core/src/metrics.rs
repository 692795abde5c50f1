//! Summary statistics for stretch measurements.

use std::fmt;

use tao_sim::SimDuration;
use tao_topology::{NodeIdx, RttOracle};

/// Routing stretch of one overlay route, given the underlay routers of its
/// hops (source first): latency accumulated hop by hop over the shortest-
/// path latency from the first router to the last.
///
/// `None` for a route of fewer than two hops and for co-located endpoints
/// (zero direct latency), which have no defined stretch.
pub(crate) fn route_stretch<I>(hops: I, oracle: &RttOracle) -> Option<f64>
where
    I: DoubleEndedIterator<Item = NodeIdx> + Clone,
{
    let mut ends = hops.clone();
    let (src, dst) = (ends.next()?, ends.next_back()?);
    let direct = oracle.ground_truth(src, dst);
    if direct.is_zero() {
        return None;
    }
    let mut path = SimDuration::ZERO;
    for (a, b) in hops.clone().zip(hops.skip(1)) {
        path += oracle.ground_truth(a, b);
    }
    Some(path / direct)
}

/// An online summary of a set of `f64` samples.
///
/// # Example
///
/// ```
/// use tao_core::Summary;
///
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.add(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// assert!((s.percentile(0.5) - 2.5).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    samples: Vec<f64>,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Adds a sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn add(&mut self, x: f64) {
        assert!(x.is_finite(), "samples must be finite, got {x}");
        self.samples.push(x);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Minimum sample, or 0.0 with no samples.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample, or 0.0 with no samples.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The `q`-quantile (nearest-rank), or 0.0 with no samples.
    ///
    /// # Panics
    ///
    /// Panics unless `q` is in `[0, 1]`.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        // total_cmp matches partial_cmp on the finite samples `add`
        // accepts, and cannot panic on a NaN that slips through.
        sorted.sort_by(|a, b| a.total_cmp(b));
        let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        sorted
            .get(rank.min(sorted.len() - 1))
            .copied()
            .unwrap_or(0.0)
    }

    /// Sample standard deviation, or 0.0 with fewer than two samples.
    pub fn stddev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>()
            / (self.samples.len() - 1) as f64;
        var.sqrt()
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.add(x);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        s.extend(iter);
        s
    }
}

/// A [`Summary`] of routing-stretch samples (type alias for readability in
/// experiment signatures).
pub type StretchSummary = Summary;

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} p50={:.3} p95={:.3} max={:.3}",
            self.count(),
            self.mean(),
            self.percentile(0.5),
            self.percentile(0.95),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_stretch_is_path_over_direct_and_none_when_undefined() {
        use tao_topology::{EdgeClass, Graph, NodeKind};
        // A triangle: 0–1 and 1–2 cost 3 ms each, the direct 0–2 link 2 ms.
        let mut g = Graph::new();
        let n: Vec<NodeIdx> = (0..3)
            .map(|_| g.add_node(NodeKind::Stub { domain: 0 }))
            .collect();
        g.add_edge(
            n[0],
            n[1],
            SimDuration::from_millis(3),
            EdgeClass::IntraStub,
        );
        g.add_edge(
            n[1],
            n[2],
            SimDuration::from_millis(3),
            EdgeClass::IntraStub,
        );
        g.add_edge(
            n[0],
            n[2],
            SimDuration::from_millis(2),
            EdgeClass::IntraStub,
        );
        let oracle = RttOracle::new(g);
        let stretch = |hops: &[NodeIdx]| route_stretch(hops.iter().copied(), &oracle);
        assert_eq!(stretch(&[n[0], n[1], n[2]]), Some(3.0));
        assert_eq!(stretch(&[n[0], n[2]]), Some(1.0));
        assert_eq!(stretch(&[]), None);
        assert_eq!(stretch(&[n[0]]), None, "a route that never left its source");
        assert_eq!(stretch(&[n[0], n[1], n[0]]), None, "co-located endpoints");
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.percentile(0.9), 0.0);
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn statistics_match_hand_computation() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.138).abs() < 0.01);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.percentile(0.0), 2.0);
        assert_eq!(s.percentile(1.0), 9.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_samples_are_rejected() {
        Summary::new().add(f64::NAN);
    }

    #[test]
    fn display_is_informative() {
        let s: Summary = [1.0, 3.0].into_iter().collect();
        let out = s.to_string();
        assert!(out.contains("n=2"));
        assert!(out.contains("mean=2.000"));
    }
}
