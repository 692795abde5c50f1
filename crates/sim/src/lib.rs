//! # tao-sim — deterministic discrete-event simulation kernel
//!
//! A small, dependency-light virtual-time engine used throughout the `tao`
//! workspace. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time,
//! * [`EventQueue`] — a deterministic priority queue of timestamped events
//!   (ties broken by insertion sequence, so identical runs replay exactly),
//! * [`Simulator`] — an actor-style message-passing engine where nodes
//!   exchange messages whose delivery latency is supplied by a pluggable
//!   [`LatencyModel`],
//! * [`NetStats`] — message/byte accounting (plus drop/duplicate/partition
//!   accounting under faults), so experiments can report communication cost,
//! * [`FaultPlan`] — seeded, bit-reproducible fault injection: message loss,
//!   jitter/reordering, duplicates, partitions with heal times, and
//!   crash-stop / crash-recover schedules.
//!
//! The paper's soft-state machinery (TTL decay, refresh timers,
//! publish/subscribe notifications) is time-driven; running it on virtual
//! time makes every experiment reproducible from a seed.
//!
//! # Example
//!
//! ```
//! use tao_sim::{Simulator, SimDuration, NodeId, UniformLatency};
//!
//! // Two nodes playing ping-pong: node 0 sends `0` to node 1, each receiver
//! // replies `n + 1`, until the payload reaches 10.
//! let mut sim = Simulator::new(UniformLatency::new(SimDuration::from_millis(5)));
//! for _ in 0..2 {
//!     sim.add_node();
//! }
//! sim.send(NodeId(0), NodeId(1), 0u64);
//! let mut last = 0;
//! while let Some(delivery) = sim.step(|engine, at, msg| {
//!     if msg.payload < 10 {
//!         engine.send(at, msg.from, msg.payload + 1);
//!     }
//!     msg.payload
//! }) {
//!     last = delivery;
//! }
//! assert_eq!(last, 10);
//! assert_eq!(sim.now(), SimDuration::from_millis(5 * 11).after_origin());
//! ```

#![forbid(unsafe_code)]
#![warn(
    missing_docs,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::allow_attributes_without_reason
)]

mod engine;
mod event;
mod fault;
mod stats;

pub use engine::{Engine, LatencyModel, Message, NodeId, Simulator, UniformLatency};
pub use event::{EventQueue, ScheduledEvent};
pub use fault::FaultPlan;
pub use stats::NetStats;
// The time newtypes live in `tao_util::time` so that the layers below the
// simulator (topology, landmark, overlay, proximity, softstate) can speak
// latencies and TTLs without depending on the event engine; `tao-sim`
// re-exports them as the canonical names for simulation code.
pub use tao_util::time::{SimDuration, SimTime};
