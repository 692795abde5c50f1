//! Deterministic fault injection for the simulation engine.
//!
//! A [`FaultPlan`] composes the adversities the paper's soft-state machinery
//! is supposed to survive (§3.3–3.4): probabilistic message loss, latency
//! jitter (and therefore reordering), duplicate deliveries, network
//! partitions with scheduled heal times, and crash-stop / crash-recover node
//! schedules. All probabilistic decisions are drawn from a seeded
//! [`StdRng`], and the engine consults the plan in a fixed order (once per
//! send, in send order), so a given seed plus a given plan replays
//! *bit-identically* — including across processes and platforms. That makes
//! every fault run reproducible: re-run with the same seed and the same
//! schedule of sends and you observe the same drops, the same jitter, the
//! same duplicates.
//!
//! Structural faults (partitions, crashed nodes) are decided without
//! consuming randomness, so adding a partition window does not perturb the
//! drop/jitter decision stream.
//!
//! # Example
//!
//! ```
//! use tao_sim::{FaultPlan, NodeId, SimDuration, SimTime, Simulator, UniformLatency};
//!
//! let mut sim: Simulator<u32, _> =
//!     Simulator::new(UniformLatency::new(SimDuration::from_millis(5)));
//! let a = sim.add_node();
//! let b = sim.add_node();
//!
//! // Partition {a} from everyone else until t = 1 s; the first send is cut.
//! let mut plan = FaultPlan::new(0xFA17);
//! plan.partition(&[a], SimTime::ORIGIN, SimTime::from_micros(1_000_000));
//! sim.set_fault_plan(plan);
//!
//! sim.send(a, b, 7);
//! assert!(sim.step(|_, _, m| m.payload).is_none()); // dropped at the cut
//! assert_eq!(sim.stats().drops(), 1);
//!
//! // After the heal time the same link works again.
//! sim.set_timer(a, SimDuration::from_secs(2), 0); // advance the clock
//! sim.step(|_, _, _| {});
//! sim.send(a, b, 8);
//! assert_eq!(sim.step(|_, _, m| m.payload), Some(8));
//! ```

use crate::engine::NodeId;
use tao_util::det::{DetMap, DetSet};
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};
use tao_util::time::{SimDuration, SimTime};

/// One scheduled partition window: nodes in `island` cannot exchange
/// messages with nodes outside it while `from <= now < until`.
#[derive(Debug, Clone)]
struct Partition {
    island: DetSet<NodeId>,
    from: SimTime,
    until: SimTime,
}

/// One crash window: the node is down while `down_from <= now < up_at`.
/// Crash-stop schedules use [`SimTime::MAX`] as `up_at`.
///
/// The authoritative record of every scheduled window, in insertion order;
/// queries go through the per-node `crash_index`, and the test oracle
/// (`is_down_scan`) replays this list — outside tests only the index reads.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(
    not(test),
    allow(
        dead_code,
        reason = "outside tests only the per-node crash index is read"
    )
)]
struct CrashWindow {
    node: NodeId,
    down_from: SimTime,
    up_at: SimTime,
}

/// The fault layer's decision about one send attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Deliver with `extra` jitter on top of the model latency; when
    /// `duplicate_extra` is set, schedule a second copy with that jitter.
    Deliver {
        /// Extra one-way delay for the primary copy.
        extra: SimDuration,
        /// Jitter for an injected duplicate copy, if one was drawn.
        duplicate_extra: Option<SimDuration>,
    },
    /// The message never enters the queue.
    Drop,
}

/// A seeded, deterministic schedule of network and node faults.
///
/// Configure with the builder-style methods (they take `&mut self` and
/// chain), then install on a [`Simulator`](crate::Simulator) with
/// [`set_fault_plan`](crate::Simulator::set_fault_plan). Cloning a plan
/// clones its RNG state, so two simulators given clones of the same plan
/// make identical decisions.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: StdRng,
    drop_probability: f64,
    link_drops: DetMap<(NodeId, NodeId), f64>,
    duplicate_probability: f64,
    jitter: SimDuration,
    partitions: Vec<Partition>,
    crashes: Vec<CrashWindow>,
    /// Per-node view of `crashes`: the engine asks [`FaultPlan::is_down`]
    /// once per popped event, so that query must cost O(windows of this
    /// node), not O(every window in the plan).
    crash_index: DetMap<NodeId, Vec<(SimTime, SimTime)>>,
}

impl FaultPlan {
    /// Creates a fault-free plan whose probabilistic decisions will be driven
    /// by `seed`. Until faults are configured, the plan delivers everything
    /// exactly like the bare engine (and consumes no randomness).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            rng: StdRng::seed_from_u64(seed),
            drop_probability: 0.0,
            link_drops: DetMap::new(),
            duplicate_probability: 0.0,
            jitter: SimDuration::ZERO,
            partitions: Vec::new(),
            crashes: Vec::new(),
            crash_index: DetMap::new(),
        }
    }

    /// Sets the default per-message drop probability, applied to every link
    /// without a [`link_drop`](Self::link_drop) override.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn drop_probability(&mut self, p: f64) -> &mut Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability {p} not in [0, 1]"
        );
        self.drop_probability = p;
        self
    }

    /// Overrides the drop probability for the directed link `from -> to`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn link_drop(&mut self, from: NodeId, to: NodeId, p: f64) -> &mut Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability {p} not in [0, 1]"
        );
        self.link_drops.insert((from, to), p);
        self
    }

    /// Sets the per-message duplicate probability: with probability `p` a
    /// second copy of the message is scheduled (with its own jitter draw),
    /// so receivers see the payload twice.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn duplicate_probability(&mut self, p: f64) -> &mut Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplicate probability {p} not in [0, 1]"
        );
        self.duplicate_probability = p;
        self
    }

    /// Adds up to `max` extra one-way delay to every delivered message,
    /// drawn uniformly from `[0, max]`. Because different messages draw
    /// different jitter, per-link FIFO ordering no longer holds — this is
    /// the plan's reordering knob.
    pub fn jitter(&mut self, max: SimDuration) -> &mut Self {
        self.jitter = max;
        self
    }

    /// Schedules a partition: while `from <= now < until` (the heal time),
    /// messages between `island` and the rest of the network are dropped.
    /// Messages within the island, and within the remainder, still flow.
    ///
    /// # Panics
    ///
    /// Panics if `until < from`.
    pub fn partition(&mut self, island: &[NodeId], from: SimTime, until: SimTime) -> &mut Self {
        assert!(from <= until, "partition heals before it starts");
        self.partitions.push(Partition {
            island: island.iter().copied().collect(),
            from,
            until,
        });
        self
    }

    /// Schedules a crash-stop: `node` is down from `at` forever. A down node
    /// sends nothing, receives nothing (in-flight deliveries to it are
    /// dropped), and loses its pending timers.
    pub fn crash(&mut self, node: NodeId, at: SimTime) -> &mut Self {
        self.crash_recover(node, at, SimTime::MAX)
    }

    /// Schedules a crash-recover: `node` is down over the half-open window
    /// `[down_from, up_at)` — it behaves normally again at the `up_at`
    /// instant itself — matching the partition convention.
    ///
    /// # Panics
    ///
    /// Panics if `up_at < down_from`.
    pub fn crash_recover(&mut self, node: NodeId, down_from: SimTime, up_at: SimTime) -> &mut Self {
        assert!(down_from <= up_at, "node recovers before it crashes");
        self.crashes.push(CrashWindow {
            node,
            down_from,
            up_at,
        });
        self.crash_index
            .entry(node)
            .or_default()
            .push((down_from, up_at));
        self
    }

    /// True when `node` is inside one of its scheduled crash windows at
    /// `at`. Windows are half-open: down at `down_from`, back up at `up_at`.
    pub fn is_down(&self, node: NodeId, at: SimTime) -> bool {
        self.crash_index.get(&node).is_some_and(|windows| {
            windows
                .iter()
                .any(|&(down_from, up_at)| down_from <= at && at < up_at)
        })
    }

    /// The pre-index `is_down`: a linear scan over every window in the
    /// plan. Kept as the oracle the per-node index is tested against.
    #[cfg(test)]
    fn is_down_scan(&self, node: NodeId, at: SimTime) -> bool {
        self.crashes
            .iter()
            .any(|w| w.node == node && w.down_from <= at && at < w.up_at)
    }

    /// True when an active partition window separates `a` from `b` at `at`.
    pub fn partitioned(&self, a: NodeId, b: NodeId, at: SimTime) -> bool {
        self.partitions
            .iter()
            .filter(|p| p.from <= at && at < p.until)
            .any(|p| p.island.contains(&a) != p.island.contains(&b))
    }

    /// Number of scheduled partition windows (epochs).
    pub fn partition_epoch_count(&self) -> u64 {
        self.partitions.len() as u64
    }

    /// Decides the fate of one send attempt. Consumes randomness only for
    /// the probabilistic knobs actually enabled, in a fixed order
    /// (drop, then jitter, then duplicate), so the decision stream is a
    /// deterministic function of the seed and the send sequence.
    pub(crate) fn judge(&mut self, from: NodeId, to: NodeId, now: SimTime) -> Verdict {
        if self.is_down(from, now) || self.is_down(to, now) || self.partitioned(from, to, now) {
            return Verdict::Drop;
        }
        let p = *self
            .link_drops
            .get(&(from, to))
            .unwrap_or(&self.drop_probability);
        if p > 0.0 && self.rng.gen_bool(p) {
            return Verdict::Drop;
        }
        let extra = self.draw_jitter();
        let duplicate_extra =
            if self.duplicate_probability > 0.0 && self.rng.gen_bool(self.duplicate_probability) {
                Some(self.draw_jitter())
            } else {
                None
            };
        Verdict::Deliver {
            extra,
            duplicate_extra,
        }
    }

    fn draw_jitter(&mut self) -> SimDuration {
        if self.jitter.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros(self.rng.gen_range(0..=self.jitter.as_micros()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ORIGIN;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn fault_free_plan_delivers_everything_without_randomness() {
        let mut plan = FaultPlan::new(1);
        let before = plan.rng.clone();
        for i in 0..64 {
            assert_eq!(
                plan.judge(NodeId(i), NodeId(i + 1), t(i as u64)),
                Verdict::Deliver {
                    extra: SimDuration::ZERO,
                    duplicate_extra: None
                }
            );
        }
        assert_eq!(plan.rng, before, "no faults => no RNG consumption");
    }

    #[test]
    fn drop_probability_one_drops_everything() {
        let mut plan = FaultPlan::new(2);
        plan.drop_probability(1.0);
        for i in 0..32 {
            assert_eq!(plan.judge(NodeId(0), NodeId(1), t(i)), Verdict::Drop);
        }
    }

    #[test]
    fn link_override_beats_default() {
        let mut plan = FaultPlan::new(3);
        plan.drop_probability(1.0)
            .link_drop(NodeId(0), NodeId(1), 0.0);
        assert!(matches!(
            plan.judge(NodeId(0), NodeId(1), T0),
            Verdict::Deliver { .. }
        ));
        // The reverse direction still uses the (total-loss) default.
        assert_eq!(plan.judge(NodeId(1), NodeId(0), T0), Verdict::Drop);
    }

    #[test]
    fn same_seed_same_verdict_stream() {
        let run = || {
            let mut plan = FaultPlan::new(0xD1CE);
            plan.drop_probability(0.3)
                .jitter(SimDuration::from_millis(10))
                .duplicate_probability(0.1);
            (0..200)
                .map(|i| plan.judge(NodeId(i % 5), NodeId((i + 1) % 5), t(i as u64)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn partition_window_cuts_cross_island_links_until_heal() {
        let mut plan = FaultPlan::new(4);
        plan.partition(&[NodeId(0), NodeId(1)], t(100), t(200));
        // Active window, cross-cut: dropped both directions.
        assert!(plan.partitioned(NodeId(0), NodeId(2), t(100)));
        assert!(plan.partitioned(NodeId(2), NodeId(1), t(199)));
        // Same side: fine.
        assert!(!plan.partitioned(NodeId(0), NodeId(1), t(150)));
        assert!(!plan.partitioned(NodeId(2), NodeId(3), t(150)));
        // Outside the window: healed.
        assert!(!plan.partitioned(NodeId(0), NodeId(2), t(99)));
        assert!(!plan.partitioned(NodeId(0), NodeId(2), t(200)));
        assert_eq!(plan.partition_epoch_count(), 1);
    }

    #[test]
    fn crash_windows_cover_stop_and_recover() {
        let mut plan = FaultPlan::new(5);
        plan.crash(NodeId(1), t(50));
        plan.crash_recover(NodeId(2), t(10), t(20));
        assert!(!plan.is_down(NodeId(1), t(49)));
        assert!(plan.is_down(NodeId(1), t(50)));
        assert!(plan.is_down(NodeId(1), t(1_000_000_000)));
        assert!(plan.is_down(NodeId(2), t(10)));
        assert!(!plan.is_down(NodeId(2), t(20)));
        assert!(!plan.is_down(NodeId(3), t(15)));
    }

    #[test]
    fn down_endpoints_drop_without_consuming_randomness() {
        let mut plan = FaultPlan::new(6);
        plan.drop_probability(0.5).crash(NodeId(0), T0);
        let before = plan.rng.clone();
        assert_eq!(plan.judge(NodeId(0), NodeId(1), t(5)), Verdict::Drop);
        assert_eq!(plan.judge(NodeId(1), NodeId(0), t(5)), Verdict::Drop);
        assert_eq!(plan.rng, before, "structural drops must not touch the RNG");
    }

    #[test]
    fn windows_are_half_open_at_both_boundaries() {
        // [down_from, up_at): down at the first instant, healed at the last.
        let mut plan = FaultPlan::new(8);
        plan.crash_recover(NodeId(0), t(100), t(200));
        plan.partition(&[NodeId(1)], t(100), t(200));
        // Crash window boundaries.
        assert!(!plan.is_down(NodeId(0), t(99)));
        assert!(plan.is_down(NodeId(0), t(100)), "down AT down_from");
        assert!(plan.is_down(NodeId(0), t(199)));
        assert!(!plan.is_down(NodeId(0), t(200)), "healed AT up_at");
        // Partition window boundaries use the same convention.
        assert!(!plan.partitioned(NodeId(1), NodeId(2), t(99)));
        assert!(plan.partitioned(NodeId(1), NodeId(2), t(100)));
        assert!(!plan.partitioned(NodeId(1), NodeId(2), t(200)));
        // A message sent exactly at the heal instant flows.
        assert!(matches!(
            plan.judge(NodeId(0), NodeId(1), t(200)),
            Verdict::Deliver { .. }
        ));
        // One sent exactly at the crash instant does not.
        assert_eq!(plan.judge(NodeId(0), NodeId(2), t(100)), Verdict::Drop);
    }

    #[test]
    fn zero_length_window_never_fires() {
        let mut plan = FaultPlan::new(9);
        plan.crash_recover(NodeId(0), t(50), t(50));
        assert!(!plan.is_down(NodeId(0), t(49)));
        assert!(!plan.is_down(NodeId(0), t(50)));
        assert!(!plan.is_down(NodeId(0), t(51)));
    }

    #[test]
    fn crash_index_matches_the_linear_scan_oracle() {
        use tao_util::check::for_all;
        use tao_util::check_eq;
        use tao_util::rand::Rng;
        for_all("crash_index_matches_the_linear_scan_oracle", 128, |rng| {
            let mut plan = FaultPlan::new(10);
            for _ in 0..rng.gen_range(0usize..24) {
                let node = NodeId(rng.gen_range(0..6));
                let a = rng.gen_range(0u64..1_000);
                let b = rng.gen_range(0u64..1_000);
                plan.crash_recover(node, t(a.min(b)), t(a.max(b)));
            }
            for _ in 0..64 {
                let node = NodeId(rng.gen_range(0..8));
                let probe = rng.gen_range(0u64..1_100);
                check_eq!(
                    plan.is_down(node, t(probe)),
                    plan.is_down_scan(node, t(probe)),
                    "node {node} at {probe}us"
                );
            }
        });
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn rejects_probability_above_one() {
        FaultPlan::new(7).drop_probability(1.5);
    }
}
