//! The message-passing simulation engine.
//!
//! [`Simulator`] owns a set of nodes (identified by dense [`NodeId`]s), an
//! [`EventQueue`] of in-flight [`Message`]s and timers, and a [`LatencyModel`]
//! that decides how long each message takes to arrive. Handlers receive an
//! [`Engine`] handle through which they can send further messages and set
//! timers — mutation of the queue is mediated so handlers cannot observe
//! half-updated simulator state.

use crate::event::EventQueue;
use crate::fault::{FaultPlan, Verdict};
use crate::stats::NetStats;
use std::fmt;
use tao_util::time::{SimDuration, SimTime};

/// The nominal byte size [`NetStats`] charges per delivered message.
const PAYLOAD_BYTES: u64 = 64;

/// Identifies a simulated node. Dense, assigned by [`Simulator::add_node`] in
/// increasing order starting at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A message in flight between two nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message<M> {
    /// Sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Application payload.
    pub payload: M,
}

/// A timer owned by a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timer<M> {
    /// The node whose timer fires.
    pub owner: NodeId,
    /// Application payload attached when the timer was set.
    pub payload: M,
}

#[derive(Debug, Clone)]
enum Pending<M> {
    Deliver(Message<M>),
    Fire(Timer<M>),
}

/// Decides the one-way delivery latency between two nodes.
///
/// Implementations typically wrap a topology graph; [`UniformLatency`] is a
/// trivial model for tests.
pub trait LatencyModel {
    /// One-way latency from `from` to `to`.
    fn latency(&self, from: NodeId, to: NodeId) -> SimDuration;
}

/// A [`LatencyModel`] that charges the same latency for every pair.
///
/// # Example
///
/// ```
/// use tao_sim::{LatencyModel, NodeId, SimDuration, UniformLatency};
///
/// let m = UniformLatency::new(SimDuration::from_millis(1));
/// assert_eq!(m.latency(NodeId(0), NodeId(9)), SimDuration::from_millis(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformLatency {
    latency: SimDuration,
}

impl UniformLatency {
    /// Creates a model that always answers `latency`.
    pub fn new(latency: SimDuration) -> Self {
        UniformLatency { latency }
    }
}

impl LatencyModel for UniformLatency {
    fn latency(&self, _from: NodeId, _to: NodeId) -> SimDuration {
        self.latency
    }
}

impl<F> LatencyModel for F
where
    F: Fn(NodeId, NodeId) -> SimDuration,
{
    fn latency(&self, from: NodeId, to: NodeId) -> SimDuration {
        self(from, to)
    }
}

/// Handle passed to event handlers for scheduling follow-up work.
///
/// Sends and timers requested through the handle are applied to the
/// simulator's queue when the handler returns.
#[derive(Debug)]
pub struct Engine<M> {
    now: SimTime,
    outgoing: Vec<(NodeId, NodeId, M)>,
    timers: Vec<(SimDuration, NodeId, M)>,
}

impl<M> Engine<M> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `payload` from `from` to `to`; it will be delivered after the
    /// latency model's delay.
    pub fn send(&mut self, from: NodeId, to: NodeId, payload: M) {
        self.outgoing.push((from, to, payload));
    }

    /// Arms a timer on `owner` that fires after `delay`.
    pub fn set_timer(&mut self, owner: NodeId, delay: SimDuration, payload: M) {
        self.timers.push((delay, owner, payload));
    }
}

/// The discrete-event simulator.
///
/// Generic over the message payload type `M` and the latency model `L`. The
/// processing loop is driven by the caller via [`Simulator::step`] or
/// [`Simulator::run_until`]; handlers are plain closures, so the simulator
/// imposes no trait on node state — experiments keep node state in whatever
/// structure suits them and borrow it inside the handler.
#[derive(Debug)]
pub struct Simulator<M, L> {
    queue: EventQueue<Pending<M>>,
    latency: L,
    now: SimTime,
    nodes: usize,
    stats: NetStats,
    faults: Option<FaultPlan>,
    /// `(time, seq)` of the last event popped; every subsequent pop must be
    /// strictly greater, which is the determinism contract latency ties are
    /// resolved by (insertion order, never queue internals).
    last_event: Option<(SimTime, u64)>,
    /// Recycled [`Engine`] buffers: handlers run millions of times per
    /// experiment, and re-allocating two `Vec`s per event dominated the
    /// step loop's allocator traffic at the 10^6-node scale.
    scratch_outgoing: Vec<(NodeId, NodeId, M)>,
    scratch_timers: Vec<(SimDuration, NodeId, M)>,
}

impl<M, L> Simulator<M, L> {
    /// Creates a simulator with no nodes at time [`SimTime::ORIGIN`].
    pub fn new(latency: L) -> Self {
        Simulator {
            queue: EventQueue::new(),
            latency,
            now: SimTime::ORIGIN,
            nodes: 0,
            stats: NetStats::new(),
            faults: None,
            last_event: None,
            scratch_outgoing: Vec::new(),
            scratch_timers: Vec::new(),
        }
    }

    /// Installs a fault plan; subsequent sends and deliveries are filtered
    /// through it. The plan's scheduled partition windows are recorded in
    /// [`NetStats::partition_epochs`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.stats
            .record_partition_epochs(plan.partition_epoch_count());
        self.faults = Some(plan);
    }

    /// Registers a node and returns its id. Ids are dense and increasing.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes);
        self.nodes += 1;
        id
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Accumulated network statistics.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Number of queued (undelivered) events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Arms a timer on `owner` firing after `delay`.
    ///
    /// # Panics
    ///
    /// Panics if `owner` has not been registered.
    // tao-lint: allow(panic-reachability, reason = "documented panic on an unregistered node; wheel scheduling panics only on a slot-index bug the wheel-vs-heap property tests in event.rs would catch")
    pub fn set_timer(&mut self, owner: NodeId, delay: SimDuration, payload: M) {
        self.check_node(owner);
        self.queue
            // tao-lint: allow(arith-safety, reason = "SimTime + SimDuration dispatches to the saturating Add impl in tao-util::time; a deadline past the horizon clamps to SimTime::MAX instead of wrapping")
            .schedule(self.now + delay, Pending::Fire(Timer { owner, payload }));
    }

    fn check_node(&self, id: NodeId) {
        assert!(
            id.0 < self.nodes,
            "node {id} is not registered (have {} nodes)",
            self.nodes
        );
    }

    /// Asserts the stable `(time, seq)` pop order that makes fault runs
    /// replay identically across platforms.
    fn note_popped(&mut self, at: SimTime, seq: u64) {
        debug_assert!(at >= self.now, "time must be monotone");
        debug_assert!(
            self.last_event.is_none_or(|last| (at, seq) > last),
            "events must pop in strict (time, seq) order"
        );
        self.last_event = Some((at, seq));
        self.now = at;
    }
}

impl<M: Clone, L: LatencyModel> Simulator<M, L> {
    /// Injects a message from outside the simulation (e.g. the workload
    /// driver); it is delivered after the model latency.
    ///
    /// With a [`FaultPlan`] installed the message may instead be dropped
    /// (loss, partition cut, or a dead endpoint — recorded in
    /// [`NetStats::drops`]), delayed by jitter, or duplicated.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint has not been registered.
    // tao-lint: allow(panic-reachability, reason = "documented panic on an unregistered endpoint; delivery scheduling shares set_timer's wheel-slot invariant")
    pub fn send(&mut self, from: NodeId, to: NodeId, payload: M) {
        self.check_node(from);
        self.check_node(to);
        let delay = self.latency.latency(from, to);
        let verdict = match &mut self.faults {
            Some(plan) => plan.judge(from, to, self.now),
            None => Verdict::Deliver {
                extra: SimDuration::ZERO,
                duplicate_extra: None,
            },
        };
        match verdict {
            Verdict::Drop => self.stats.record_drop(),
            Verdict::Deliver {
                extra,
                duplicate_extra,
            } => {
                self.stats.record_message(PAYLOAD_BYTES);
                if let Some(dup_extra) = duplicate_extra {
                    // The duplicate is real traffic: charge it too.
                    self.stats.record_message(PAYLOAD_BYTES);
                    self.stats.record_duplicate();
                    self.queue.schedule(
                        self.now + delay + dup_extra,
                        Pending::Deliver(Message {
                            from,
                            to,
                            // tao-lint: allow(alloc-reachability, reason = "a fault-injected duplicate needs its own owned payload; duplication is a rare fault event, not steady-state delivery")
                            payload: payload.clone(),
                        }),
                    );
                }
                self.queue.schedule(
                    // tao-lint: allow(arith-safety, reason = "SimTime + SimDuration dispatches to the saturating Add impl in tao-util::time; a delivery past the horizon clamps to SimTime::MAX instead of wrapping")
                    self.now + delay + extra,
                    Pending::Deliver(Message { from, to, payload }),
                );
            }
        }
    }

    /// Processes the earliest deliverable event, if any.
    ///
    /// Message deliveries call `on_message(engine, recipient, message)`;
    /// timer firings are surfaced as a message from the owner to itself.
    /// Events addressed to a crashed node are consumed silently (deliveries
    /// are counted as drops; timers are simply lost) and processing moves on
    /// to the next event, so `Some` means a handler actually ran. Returns
    /// the handler's output, or `None` when the queue is empty.
    // tao-lint: hot
    // tao-lint: allow(panic-reachability, reason = "stepping panics only if the event queue and clock disagree, an engine bug the invariant harness would catch")
    pub fn step<R>(
        &mut self,
        on_message: impl FnMut(&mut Engine<M>, NodeId, Message<M>) -> R,
    ) -> Option<R> {
        self.step_bounded(SimTime::MAX, on_message)
    }

    /// [`step`](Self::step), but refuses to pop events past `deadline` —
    /// they stay queued for a later call. The deadline is *inclusive*,
    /// mirroring the queue's peek: an event is processed iff
    /// `next_time() <= deadline`.
    fn step_bounded<R>(
        &mut self,
        deadline: SimTime,
        mut on_message: impl FnMut(&mut Engine<M>, NodeId, Message<M>) -> R,
    ) -> Option<R> {
        loop {
            if self.queue.next_time()? > deadline {
                return None;
            }
            #[expect(clippy::expect_used, reason = "peeked event must pop")]
            let ev = self.queue.pop().expect("peeked event must pop");
            self.note_popped(ev.at, ev.seq);
            let (owner, msg) = match ev.event {
                Pending::Deliver(msg) => {
                    if self.node_is_down(msg.to) {
                        self.stats.record_drop();
                        continue;
                    }
                    (msg.to, msg)
                }
                Pending::Fire(t) => {
                    if self.node_is_down(t.owner) {
                        // A crashed node loses its pending timers.
                        continue;
                    }
                    (
                        t.owner,
                        Message {
                            from: t.owner,
                            to: t.owner,
                            payload: t.payload,
                        },
                    )
                }
            };
            let mut engine = Engine {
                now: self.now,
                outgoing: std::mem::take(&mut self.scratch_outgoing),
                timers: std::mem::take(&mut self.scratch_timers),
            };
            let out = on_message(&mut engine, owner, msg);
            let Engine {
                mut outgoing,
                mut timers,
                ..
            } = engine;
            for (from, to, payload) in outgoing.drain(..) {
                self.send(from, to, payload);
            }
            for (delay, owner, payload) in timers.drain(..) {
                self.set_timer(owner, delay, payload);
            }
            // Hand the (drained) buffers back for the next event.
            self.scratch_outgoing = outgoing;
            self.scratch_timers = timers;
            return Some(out);
        }
    }

    /// Runs until the queue is empty or virtual time would pass `deadline`;
    /// returns the number of events *delivered* (faulted-away events are
    /// consumed but not counted).
    ///
    /// The deadline is **inclusive**: an event stamped exactly `deadline`
    /// is processed, one stamped a single microsecond later stays queued.
    /// This matches the queue's peek — the loop stops as soon as
    /// `next_time() > deadline` — so driving the simulator in fixed windows
    /// (`run_until(t1); run_until(t2); …`) processes every event exactly
    /// once with no gap or overlap at the window edges.
    // tao-lint: allow(panic-reachability, reason = "delegates to step(); same queue/clock invariant")
    pub fn run_until(
        &mut self,
        deadline: SimTime,
        mut on_message: impl FnMut(&mut Engine<M>, NodeId, Message<M>),
    ) -> usize {
        let mut processed = 0;
        while self
            .step_bounded(deadline, |engine, at, msg| on_message(engine, at, msg))
            .is_some()
        {
            processed += 1;
        }
        processed
    }

    fn node_is_down(&self, node: NodeId) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|plan| plan.is_down(node, self.now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_sim() -> Simulator<u32, UniformLatency> {
        let mut sim = Simulator::new(UniformLatency::new(SimDuration::from_millis(2)));
        sim.add_node();
        sim.add_node();
        sim
    }

    #[test]
    fn message_arrives_after_model_latency() {
        let mut sim = two_node_sim();
        sim.send(NodeId(0), NodeId(1), 7);
        let got = sim.step(|_, at, msg| (at, msg.payload)).unwrap();
        assert_eq!(got, (NodeId(1), 7));
        assert_eq!(sim.now(), SimTime::from_micros(2_000));
    }

    #[test]
    fn handler_sends_are_chained() {
        let mut sim = two_node_sim();
        sim.send(NodeId(0), NodeId(1), 0);
        let mut deliveries = Vec::new();
        while sim
            .step(|engine, _, msg| {
                if msg.payload < 3 {
                    engine.send(msg.to, msg.from, msg.payload + 1);
                }
                deliveries.push(msg.payload);
            })
            .is_some()
        {}
        assert_eq!(deliveries, vec![0, 1, 2, 3]);
        // Four legs of 2 ms each.
        assert_eq!(sim.now(), SimTime::from_micros(8_000));
    }

    #[test]
    fn timers_fire_on_owner() {
        let mut sim = two_node_sim();
        sim.set_timer(NodeId(1), SimDuration::from_millis(5), 99);
        let got = sim.step(|_, at, msg| (at, msg.from, msg.payload)).unwrap();
        assert_eq!(got, (NodeId(1), NodeId(1), 99));
        assert_eq!(sim.now(), SimTime::from_micros(5_000));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = two_node_sim();
        for i in 0..10 {
            sim.set_timer(NodeId(0), SimDuration::from_millis(i), i as u32);
        }
        // Events at 0..=4 ms are within the deadline; 5..=9 ms are not.
        let n = sim.run_until(SimTime::from_micros(4_000), |_, _, _| {});
        assert_eq!(n, 5);
        assert_eq!(sim.pending(), 5);
    }

    #[test]
    fn stats_count_messages_not_timers() {
        let mut sim = two_node_sim();
        sim.send(NodeId(0), NodeId(1), 1);
        sim.set_timer(NodeId(0), SimDuration::ZERO, 2);
        while sim.step(|_, _, _| {}).is_some() {}
        assert_eq!(sim.stats().messages(), 1);
        assert_eq!(sim.stats().bytes(), PAYLOAD_BYTES);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn sending_to_unknown_node_panics() {
        let mut sim = two_node_sim();
        sim.send(NodeId(0), NodeId(5), 1);
    }

    #[test]
    fn run_until_deadline_is_inclusive() {
        // Golden boundary test: the deadline instant itself is processed,
        // one microsecond later is not — the window edge belongs to the
        // earlier window, exactly once.
        let mut sim = two_node_sim();
        sim.set_timer(NodeId(0), SimDuration::from_micros(999), 1);
        sim.set_timer(NodeId(0), SimDuration::from_micros(1_000), 2);
        sim.set_timer(NodeId(0), SimDuration::from_micros(1_001), 3);
        let deadline = SimTime::from_micros(1_000);
        let mut seen = Vec::new();
        let n = sim.run_until(deadline, |_, _, m| seen.push(m.payload));
        assert_eq!(n, 2);
        assert_eq!(seen, vec![1, 2], "the event AT the deadline is included");
        assert_eq!(sim.now(), deadline, "clock rests on the boundary event");
        assert_eq!(sim.pending(), 1, "deadline + 1µs stays queued");
        // The next window picks up exactly where the last one stopped.
        let n = sim.run_until(SimTime::from_micros(2_000), |_, _, m| seen.push(m.payload));
        assert_eq!(n, 1);
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn driver_send_between_windows_lands_behind_cursor() {
        // `run_until` peeks the 100 ms timer and stops short of it, but the
        // peek has already moved the queue's cursor onto it. A send the
        // driver makes between windows, due at 2 ms, is scheduled behind
        // that cursor and must still be delivered first.
        let mut sim = two_node_sim();
        sim.set_timer(NodeId(0), SimDuration::from_millis(100), 1);
        assert_eq!(sim.run_until(SimTime::from_micros(10_000), |_, _, _| {}), 0);
        sim.send(NodeId(0), NodeId(1), 2);
        let mut seen = Vec::new();
        while sim
            .step(|engine, _, m| seen.push((engine.now(), m.payload)))
            .is_some()
        {}
        assert_eq!(
            seen,
            vec![
                (SimTime::from_micros(2_000), 2),
                (SimTime::from_micros(100_000), 1)
            ]
        );
    }

    #[test]
    fn closure_latency_model_works() {
        let model = |from: NodeId, to: NodeId| {
            let hops = u64::try_from(from.0 + to.0).expect("node ids fit in u64");
            SimDuration::from_micros(hops) * 10
        };
        let mut sim = Simulator::new(model);
        sim.add_node();
        sim.add_node();
        sim.send(NodeId(0), NodeId(1), ());
        sim.step(|_, _, _| {});
        assert_eq!(sim.now(), SimTime::from_micros(10));
    }

    #[test]
    fn lossy_plan_drops_are_counted_and_nothing_is_delivered() {
        let mut sim = two_node_sim();
        let mut plan = FaultPlan::new(11);
        plan.drop_probability(1.0);
        sim.set_fault_plan(plan);
        for i in 0..10 {
            sim.send(NodeId(0), NodeId(1), i);
        }
        assert!(sim.step(|_, _, m| m.payload).is_none());
        assert_eq!(sim.stats().drops(), 10);
        assert_eq!(sim.stats().messages(), 0);
    }

    #[test]
    fn duplicates_are_delivered_twice_and_counted() {
        let mut sim = two_node_sim();
        let mut plan = FaultPlan::new(12);
        plan.duplicate_probability(1.0);
        sim.set_fault_plan(plan);
        sim.send(NodeId(0), NodeId(1), 7);
        let mut seen = Vec::new();
        while sim.step(|_, _, m| seen.push(m.payload)).is_some() {}
        assert_eq!(seen, vec![7, 7]);
        assert_eq!(sim.stats().duplicates(), 1);
        assert_eq!(sim.stats().messages(), 2);
    }

    #[test]
    fn deliveries_to_a_crashed_node_drop_until_recovery() {
        let mut sim = two_node_sim();
        let mut plan = FaultPlan::new(13);
        // Node 1 is down for the first 10 ms of the run.
        plan.crash_recover(NodeId(1), SimTime::ORIGIN, SimTime::from_micros(10_000));
        sim.set_fault_plan(plan);
        sim.send(NodeId(0), NodeId(1), 1); // arrives at 2 ms: dropped
        assert!(sim.step(|_, _, m| m.payload).is_none());
        assert_eq!(sim.stats().drops(), 1);
        // Push the clock past recovery, then the link works again.
        sim.set_timer(NodeId(0), SimDuration::from_millis(20), 0);
        sim.step(|_, _, _| {});
        sim.send(NodeId(0), NodeId(1), 2);
        assert_eq!(sim.step(|_, _, m| m.payload), Some(2));
    }

    #[test]
    fn crashed_nodes_lose_their_timers() {
        let mut sim = two_node_sim();
        let mut plan = FaultPlan::new(14);
        plan.crash(NodeId(0), SimTime::ORIGIN);
        sim.set_fault_plan(plan);
        sim.set_timer(NodeId(0), SimDuration::from_millis(1), 9);
        sim.set_timer(NodeId(1), SimDuration::from_millis(2), 5);
        let mut fired = Vec::new();
        while sim.step(|_, at, m| fired.push((at, m.payload))).is_some() {}
        assert_eq!(fired, vec![(NodeId(1), 5)]);
    }

    #[test]
    fn run_until_does_not_overshoot_deadline_past_dropped_events() {
        let mut sim = two_node_sim();
        let mut plan = FaultPlan::new(15);
        plan.crash(NodeId(1), SimTime::ORIGIN);
        sim.set_fault_plan(plan);
        // A delivery at 2 ms that will be dropped (dead recipient), and a
        // timer at 10 ms that lies beyond the deadline.
        sim.send(NodeId(0), NodeId(1), 1);
        sim.set_timer(NodeId(0), SimDuration::from_millis(10), 2);
        let n = sim.run_until(SimTime::from_micros(5_000), |_, _, _| {});
        assert_eq!(n, 0, "nothing deliverable before the deadline");
        assert_eq!(sim.pending(), 1, "the 10 ms timer must stay queued");
        assert_eq!(sim.stats().drops(), 1);
    }

    #[test]
    fn partition_epochs_are_recorded_on_install() {
        let mut sim = two_node_sim();
        let mut plan = FaultPlan::new(16);
        plan.partition(&[NodeId(0)], SimTime::ORIGIN, SimTime::from_micros(50))
            .partition(
                &[NodeId(1)],
                SimTime::from_micros(60),
                SimTime::from_micros(70),
            );
        sim.set_fault_plan(plan);
        assert_eq!(sim.stats().partition_epochs(), 2);
    }

    #[test]
    fn same_instant_events_process_in_insertion_order() {
        let mut sim = two_node_sim();
        sim.set_timer(NodeId(0), SimDuration::ZERO, 1);
        sim.set_timer(NodeId(0), SimDuration::ZERO, 2);
        sim.set_timer(NodeId(0), SimDuration::ZERO, 3);
        let mut seen = Vec::new();
        while sim.step(|_, _, m| seen.push(m.payload)).is_some() {}
        assert_eq!(seen, vec![1, 2, 3]);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use tao_util::check::for_all;
    use tao_util::rand::Rng;
    use tao_util::{check, check_eq};

    /// Identical schedules replay identically: determinism is the
    /// engine's core guarantee.
    #[test]
    fn identical_runs_replay_identically() {
        for_all("identical_runs_replay_identically", 256, |rng| {
            let sends: Vec<(usize, usize, u16)> = (0..rng.gen_range(1usize..30))
                .map(|_| (rng.gen_range(0..4), rng.gen_range(0..4), rng.gen()))
                .collect();
            let run = || {
                let mut sim: Simulator<u16, _> =
                    Simulator::new(UniformLatency::new(SimDuration::from_millis(3)));
                for _ in 0..4 {
                    sim.add_node();
                }
                for &(a, b, p) in &sends {
                    sim.send(NodeId(a), NodeId(b), p);
                }
                let mut log = Vec::new();
                while sim
                    .step(|engine, at, msg| {
                        if msg.payload % 7 == 0 && msg.payload < 10_000 {
                            engine.send(at, msg.from, msg.payload + 1);
                        }
                        log.push((at, msg.payload));
                    })
                    .is_some()
                {}
                (log, sim.now(), sim.stats())
            };
            check_eq!(run(), run());
        });
    }

    /// Virtual time never runs backwards, whatever the schedule.
    #[test]
    fn time_is_monotone() {
        for_all("time_is_monotone", 256, |rng| {
            let delays: Vec<u64> = (0..rng.gen_range(1usize..50))
                .map(|_| rng.gen_range(0u64..10_000))
                .collect();
            let mut sim: Simulator<(), _> = Simulator::new(UniformLatency::new(SimDuration::ZERO));
            sim.add_node();
            for &d in &delays {
                sim.set_timer(NodeId(0), SimDuration::from_micros(d), ());
            }
            let mut last = SimTime::ORIGIN;
            while let Some(at) = sim.step(|engine, _, _| engine.now()) {
                check!(at >= last, "time ran backwards: {at:?} after {last:?}");
                last = at;
            }
        });
    }

    /// Every message sent is delivered exactly once.
    #[test]
    fn delivery_is_exactly_once() {
        for_all("delivery_is_exactly_once", 256, |rng| {
            let sends: Vec<(usize, usize)> = (0..rng.gen_range(1usize..40))
                .map(|_| (rng.gen_range(0..3), rng.gen_range(0..3)))
                .collect();
            let mut sim: Simulator<usize, _> =
                Simulator::new(UniformLatency::new(SimDuration::from_millis(1)));
            for _ in 0..3 {
                sim.add_node();
            }
            for (i, &(a, b)) in sends.iter().enumerate() {
                sim.send(NodeId(a), NodeId(b), i);
            }
            let mut seen = vec![0usize; sends.len()];
            while sim.step(|_, _, msg| seen[msg.payload] += 1).is_some() {}
            check!(seen.iter().all(|&c| c == 1), "counts: {seen:?}");
        });
    }

    /// Fault injection preserves the engine's core guarantee: the same
    /// seed and plan replay bit-identically, drops and all.
    #[test]
    fn faulty_runs_replay_identically() {
        for_all("faulty_runs_replay_identically", 128, |rng| {
            let plan_seed: u64 = rng.gen();
            let drop = rng.gen_range(0.0..0.5);
            let dup = rng.gen_range(0.0..0.2);
            let jitter_us = rng.gen_range(0u64..5_000);
            let sends: Vec<(usize, usize, u16)> = (0..rng.gen_range(1usize..30))
                .map(|_| (rng.gen_range(0..4), rng.gen_range(0..4), rng.gen()))
                .collect();
            let run = || {
                let mut sim: Simulator<u16, _> =
                    Simulator::new(UniformLatency::new(SimDuration::from_millis(3)));
                for _ in 0..4 {
                    sim.add_node();
                }
                let mut plan = FaultPlan::new(plan_seed);
                plan.drop_probability(drop)
                    .duplicate_probability(dup)
                    .jitter(SimDuration::from_micros(jitter_us))
                    .partition(&[NodeId(0)], SimTime::ORIGIN, SimTime::from_micros(4_000))
                    .crash_recover(
                        NodeId(3),
                        SimTime::from_micros(2_000),
                        SimTime::from_micros(9_000),
                    );
                sim.set_fault_plan(plan);
                for &(a, b, p) in &sends {
                    sim.send(NodeId(a), NodeId(b), p);
                }
                let mut log = Vec::new();
                while sim
                    .step(|engine, at, msg| {
                        if msg.payload % 7 == 0 && msg.payload < 10_000 {
                            engine.send(at, msg.from, msg.payload + 1);
                        }
                        log.push((at, msg.payload));
                    })
                    .is_some()
                {}
                (log, sim.now(), sim.stats())
            };
            check_eq!(run(), run());
        });
    }
}
