//! Search traces: the running best answer after every RTT probe.

use tao_topology::NodeIdx;
use tao_util::time::SimDuration;

/// One RTT probe made by a search and the best answer known after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// The router probed by this measurement.
    pub probed: NodeIdx,
    /// The measured RTT of this probe.
    pub rtt: SimDuration,
    /// The best (closest) router found so far, inclusive of this probe.
    pub best: NodeIdx,
    /// The best RTT found so far.
    pub best_rtt: SimDuration,
}

/// The best answer after some number of probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Best {
    /// The closest router found.
    pub node: NodeIdx,
    /// Its measured RTT.
    pub rtt: SimDuration,
}

/// The full history of a nearest-neighbor search: one [`Probe`] per RTT
/// measurement, in order.
///
/// # Example
///
/// ```
/// use tao_proximity::SearchTrace;
/// use tao_util::time::SimDuration;
/// use tao_topology::NodeIdx;
///
/// let mut t = SearchTrace::new();
/// t.record(NodeIdx(3), SimDuration::from_millis(20));
/// t.record(NodeIdx(5), SimDuration::from_millis(8));
/// t.record(NodeIdx(9), SimDuration::from_millis(30));
/// assert_eq!(t.best_after(1).unwrap().node, NodeIdx(3));
/// assert_eq!(t.best_after(3).unwrap().node, NodeIdx(5));
/// assert_eq!(t.len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchTrace {
    probes: Vec<Probe>,
}

impl SearchTrace {
    /// An empty trace.
    pub fn new() -> Self {
        SearchTrace::default()
    }

    /// Records one probe, updating the running best.
    pub fn record(&mut self, probed: NodeIdx, rtt: SimDuration) {
        let (best, best_rtt) = match self.probes.last() {
            Some(last) if last.best_rtt <= rtt => (last.best, last.best_rtt),
            _ => (probed, rtt),
        };
        self.probes.push(Probe {
            probed,
            rtt,
            best,
            best_rtt,
        });
    }

    /// Number of probes recorded.
    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// `true` if no probes were made.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }

    /// The best answer after the first `measurements` probes (clamped to the
    /// trace length); `None` if the trace is empty or `measurements` is 0.
    pub fn best_after(&self, measurements: usize) -> Option<Best> {
        if measurements == 0 {
            return None;
        }
        let idx = measurements.min(self.probes.len()).checked_sub(1)?;
        let p = self.probes.get(idx)?;
        Some(Best {
            node: p.best,
            rtt: p.best_rtt,
        })
    }

    /// All probes, in measurement order.
    pub fn probes(&self) -> &[Probe] {
        &self.probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_best_is_monotone_nonincreasing() {
        let mut t = SearchTrace::new();
        for (i, ms) in [50u64, 40, 45, 10, 60, 10].iter().enumerate() {
            t.record(NodeIdx(i as u32), SimDuration::from_millis(*ms));
        }
        let mut last = SimDuration::MAX;
        for p in t.probes() {
            assert!(p.best_rtt <= last);
            last = p.best_rtt;
        }
        assert_eq!(t.best_after(6).unwrap().rtt, SimDuration::from_millis(10));
        // Ties keep the earlier discovery.
        assert_eq!(t.best_after(6).unwrap().node, NodeIdx(3));
    }

    #[test]
    fn best_after_clamps_and_handles_empty() {
        let mut t = SearchTrace::new();
        assert!(t.best_after(5).is_none());
        t.record(NodeIdx(1), SimDuration::from_millis(3));
        assert_eq!(t.best_after(100).unwrap().node, NodeIdx(1));
        assert!(t.best_after(0).is_none());
    }
}
