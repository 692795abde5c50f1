//! Publish/subscribe over the global state (§5.2).
//!
//! "A node specifies the conditions under which it should get notified …
//! when the conditions are triggered, the notifications can be efficiently
//! disseminated to all subscribers through distribution trees embedded in
//! the overlay."
//!
//! [`PubSub`] keeps per-region subscription lists; [`PubSub::publish`]
//! matches an event against them and returns the matched subscriptions;
//! [`distribution_tree`] lays the subscribers out in a bounded-fan-out tree
//! rooted at the publishing host and computes each subscriber's delivery
//! latency and the total message count, so experiments can charge realistic
//! dissemination costs (or drive the `tao-sim` engine directly).

use std::fmt;

use tao_util::det::DetMap;

use tao_overlay::{OverlayNodeId, Zone};
use tao_util::time::SimDuration;
use tao_topology::{NodeIdx, RttOracle};

use crate::entry::{LoadStats, NodeInfo};
use crate::region::RegionKey;

/// Conditions a subscriber can register interest in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Predicate {
    /// "Notify me when more nodes have joined the zone."
    NodeJoined,
    /// Notify when a node's soft-state is withdrawn or found dead.
    NodeDeparted,
    /// Notify when a zone member reports utilization above the threshold
    /// (§6: "the selected neighbor is handling 80% of its maximum
    /// capacity").
    UtilizationAbove(f64),
    /// Notify on every event in the zone.
    Any,
}

/// An event published into a region's soft-state.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A node joined the region and published its info.
    NodeJoined(NodeInfo),
    /// A node departed (or its entry lapsed).
    NodeDeparted(OverlayNodeId),
    /// A node republished its load statistics.
    LoadChanged {
        /// The reporting node.
        node: OverlayNodeId,
        /// Its fresh load statistics.
        load: LoadStats,
    },
}

impl Event {
    fn matches(&self, predicate: Predicate) -> bool {
        match (self, predicate) {
            (_, Predicate::Any) => true,
            (Event::NodeJoined(_), Predicate::NodeJoined) => true,
            (Event::NodeDeparted(_), Predicate::NodeDeparted) => true,
            (Event::LoadChanged { load, .. }, Predicate::UtilizationAbove(t)) => {
                load.utilization() > t
            }
            _ => false,
        }
    }
}

/// Identifier of a registered subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriptionId(u64);

impl fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct Subscription {
    id: SubscriptionId,
    subscriber: OverlayNodeId,
    predicate: Predicate,
}

/// The subscription registry: per-region lists of `(subscriber, predicate)`.
///
/// # Example
///
/// ```
/// use tao_softstate::pubsub::{Event, Predicate, PubSub};
/// use tao_overlay::{OverlayNodeId, Zone};
///
/// let mut bus = PubSub::new();
/// let region = Zone::whole(2);
/// bus.subscribe(&region, OverlayNodeId(1), Predicate::NodeDeparted);
/// bus.subscribe(&region, OverlayNodeId(2), Predicate::NodeJoined);
///
/// let hit = bus.publish(&region, &Event::NodeDeparted(OverlayNodeId(9)));
/// assert_eq!(hit, vec![OverlayNodeId(1)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PubSub {
    subs: DetMap<RegionKey, Vec<Subscription>>,
    next_id: u64,
}

impl PubSub {
    /// Creates an empty registry.
    pub fn new() -> Self {
        PubSub::default()
    }

    /// Registers `subscriber` for events in `region` matching `predicate`.
    ///
    /// Events are published per region of the split tree (every CAN zone
    /// and high-order zone is one, see [`RegionKey`]); a subscription to
    /// any other shape is handed an id but can match nothing.
    pub fn subscribe(
        &mut self,
        region: &Zone,
        subscriber: OverlayNodeId,
        predicate: Predicate,
    ) -> SubscriptionId {
        let id = SubscriptionId(self.next_id);
        self.next_id += 1;
        if let Some(key) = RegionKey::from_zone(region) {
            self.subs.entry(key).or_default().push(Subscription {
                id,
                subscriber,
                predicate,
            });
        }
        id
    }

    /// Cancels a subscription; returns whether it existed.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        for list in self.subs.values_mut() {
            let before = list.len();
            list.retain(|s| s.id != id);
            if list.len() != before {
                return true;
            }
        }
        false
    }

    /// Drops all subscriptions held by `subscriber` (e.g. on departure);
    /// returns how many were removed.
    pub fn unsubscribe_all(&mut self, subscriber: OverlayNodeId) -> usize {
        let mut removed = 0;
        for list in self.subs.values_mut() {
            let before = list.len();
            list.retain(|s| s.subscriber != subscriber);
            removed += before - list.len();
        }
        removed
    }

    /// Total registered subscriptions.
    pub fn len(&self) -> usize {
        self.subs.values().map(Vec::len).sum()
    }

    /// `true` if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Matches `event` against `region`'s subscriptions; returns the
    /// subscribers to notify (deduplicated, sorted).
    pub fn publish(&self, region: &Zone, event: &Event) -> Vec<OverlayNodeId> {
        let Some(list) = RegionKey::from_zone(region).and_then(|key| self.subs.get(&key)) else {
            return Vec::new();
        };
        let mut hit: Vec<OverlayNodeId> = list
            .iter()
            .filter(|s| event.matches(s.predicate))
            .map(|s| s.subscriber)
            .collect();
        hit.sort();
        hit.dedup();
        hit
    }

    /// Subscribers that are no longer alive per `live` — *orphaned*
    /// subscriptions left behind by crashed nodes. Deduplicated, sorted.
    pub fn orphaned_subscribers(&self, mut live: impl FnMut(OverlayNodeId) -> bool) -> Vec<OverlayNodeId> {
        let mut orphans: Vec<OverlayNodeId> = self
            .subs
            .values()
            .flatten()
            .map(|s| s.subscriber)
            .filter(|&n| !live(n))
            .collect();
        orphans.sort();
        orphans.dedup();
        orphans
    }

    /// The lazy-repair path for subscriptions: drops every subscription
    /// whose subscriber is no longer alive per `live`; returns how many were
    /// removed. After this, [`PubSub::orphaned_subscribers`] with the same
    /// predicate returns an empty list.
    pub fn prune_orphans(&mut self, mut live: impl FnMut(OverlayNodeId) -> bool) -> usize {
        let mut removed = 0;
        for list in self.subs.values_mut() {
            let before = list.len();
            list.retain(|s| live(s.subscriber));
            removed += before - list.len();
        }
        removed
    }
}

/// One subscriber's delivery in a dissemination round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The notified subscriber.
    pub subscriber: OverlayNodeId,
    /// Accumulated latency from the publishing host along the tree.
    pub latency: SimDuration,
}

/// The cost summary of one dissemination round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dissemination {
    /// Per-subscriber deliveries.
    pub deliveries: Vec<Delivery>,
    /// Total point-to-point messages sent (= number of tree edges).
    pub messages: u64,
}

impl Dissemination {
    /// The slowest delivery, or zero when there are no subscribers.
    pub fn max_latency(&self) -> SimDuration {
        self.deliveries
            .iter()
            .map(|d| d.latency)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

/// Disseminates a notification from the host `root` (an underlay router) to
/// `subscribers` through a fan-out-`k` tree embedded in the overlay: the
/// root notifies up to `k` subscribers, each of which forwards to its own
/// `k` children, and so on. Latencies accumulate along tree paths using
/// `oracle` ground truth (dissemination is charged as messages, not probes).
///
/// # Panics
///
/// Panics if `fanout` is zero.
pub fn distribution_tree(
    root: NodeIdx,
    subscribers: &[(OverlayNodeId, NodeIdx)],
    fanout: usize,
    oracle: &RttOracle,
) -> Dissemination {
    assert!(fanout > 0, "fanout must be at least 1");
    let mut deliveries = Vec::with_capacity(subscribers.len());
    // latencies[i] = accumulated latency at subscriber i.
    let mut latencies: Vec<SimDuration> = Vec::with_capacity(subscribers.len());
    for (i, &(subscriber, underlay)) in subscribers.iter().enumerate() {
        // k-ary heap layout with the root as node 0 and subscriber i as
        // node i+1: the parent of node m is (m-1)/k, so subscriber i's
        // parent is the root for i < k and subscriber i/k - 1 otherwise.
        let (parent_node, parent_latency) = if i < fanout {
            (root, SimDuration::ZERO)
        } else {
            let p = i / fanout - 1;
            (subscribers[p].1, latencies[p])
        };
        let hop = oracle.ground_truth(parent_node, underlay);
        let total = parent_latency + hop;
        latencies.push(total);
        deliveries.push(Delivery {
            subscriber,
            latency: total,
        });
    }
    Dissemination {
        messages: subscribers.len() as u64,
        deliveries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_landmark::{LandmarkNumber, LandmarkVector};

    fn region() -> Zone {
        Zone::whole(2)
    }

    fn joined(id: u32) -> Event {
        Event::NodeJoined(NodeInfo {
            node: OverlayNodeId(id),
            underlay: NodeIdx(id),
            vector: LandmarkVector::from_millis(&[1.0]),
            number: LandmarkNumber::new(0),
            load: None,
        })
    }

    #[test]
    fn predicates_filter_events() {
        let mut bus = PubSub::new();
        bus.subscribe(&region(), OverlayNodeId(1), Predicate::NodeJoined);
        bus.subscribe(&region(), OverlayNodeId(2), Predicate::NodeDeparted);
        bus.subscribe(&region(), OverlayNodeId(3), Predicate::Any);
        assert_eq!(
            bus.publish(&region(), &joined(9)),
            vec![OverlayNodeId(1), OverlayNodeId(3)]
        );
        assert_eq!(
            bus.publish(&region(), &Event::NodeDeparted(OverlayNodeId(9))),
            vec![OverlayNodeId(2), OverlayNodeId(3)]
        );
    }

    #[test]
    fn utilization_threshold_is_respected() {
        let mut bus = PubSub::new();
        bus.subscribe(&region(), OverlayNodeId(1), Predicate::UtilizationAbove(0.8));
        let low = Event::LoadChanged {
            node: OverlayNodeId(5),
            load: LoadStats { capacity: 100.0, current_load: 50.0 },
        };
        let high = Event::LoadChanged {
            node: OverlayNodeId(5),
            load: LoadStats { capacity: 100.0, current_load: 90.0 },
        };
        assert!(bus.publish(&region(), &low).is_empty());
        assert_eq!(bus.publish(&region(), &high), vec![OverlayNodeId(1)]);
    }

    #[test]
    fn events_in_other_regions_do_not_leak() {
        let mut bus = PubSub::new();
        let (left, right) = Zone::whole(2).split(0);
        bus.subscribe(&left, OverlayNodeId(1), Predicate::Any);
        assert!(bus.publish(&right, &joined(2)).is_empty());
        assert_eq!(bus.publish(&left, &joined(2)), vec![OverlayNodeId(1)]);
    }

    #[test]
    fn unsubscribe_variants() {
        let mut bus = PubSub::new();
        let id = bus.subscribe(&region(), OverlayNodeId(1), Predicate::Any);
        bus.subscribe(&region(), OverlayNodeId(1), Predicate::NodeJoined);
        bus.subscribe(&region(), OverlayNodeId(2), Predicate::Any);
        assert_eq!(bus.len(), 3);
        assert!(bus.unsubscribe(id));
        assert!(!bus.unsubscribe(id));
        assert_eq!(bus.unsubscribe_all(OverlayNodeId(1)), 1);
        assert_eq!(bus.len(), 1);
    }

    #[test]
    fn duplicate_matches_are_deduplicated() {
        let mut bus = PubSub::new();
        bus.subscribe(&region(), OverlayNodeId(1), Predicate::Any);
        bus.subscribe(&region(), OverlayNodeId(1), Predicate::NodeJoined);
        assert_eq!(bus.publish(&region(), &joined(2)), vec![OverlayNodeId(1)]);
    }

    mod tree {
        use super::*;
        use tao_topology::{generate_transit_stub, LatencyAssignment, TransitStubParams};

        fn oracle() -> RttOracle {
            let topo = generate_transit_stub(
                &TransitStubParams::tsk_small_mini(),
                LatencyAssignment::manual(),
                77,
            );
            RttOracle::new(topo.graph().clone())
        }

        #[test]
        fn tree_notifies_everyone_once() {
            let oracle = oracle();
            let subs: Vec<(OverlayNodeId, NodeIdx)> = (0..20)
                .map(|i| (OverlayNodeId(i), NodeIdx(i * 7)))
                .collect();
            let d = distribution_tree(NodeIdx(0), &subs, 4, &oracle);
            assert_eq!(d.deliveries.len(), 20);
            assert_eq!(d.messages, 20);
            let mut seen: Vec<OverlayNodeId> =
                d.deliveries.iter().map(|x| x.subscriber).collect();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), 20);
        }

        #[test]
        fn deeper_subscribers_accumulate_latency() {
            let oracle = oracle();
            let subs: Vec<(OverlayNodeId, NodeIdx)> = (0..30)
                .map(|i| (OverlayNodeId(i), NodeIdx(i * 5 + 1)))
                .collect();
            let d = distribution_tree(NodeIdx(0), &subs, 2, &oracle);
            // A leaf in a binary tree of 30 subscribers sits 4+ hops deep;
            // its latency must be at least the max single-hop latency of the
            // first level.
            assert!(d.max_latency() >= d.deliveries[0].latency);
            assert!(d.max_latency() > SimDuration::ZERO);
        }

        #[test]
        fn empty_subscriber_list_is_free() {
            let oracle = oracle();
            let d = distribution_tree(NodeIdx(0), &[], 4, &oracle);
            assert_eq!(d.messages, 0);
            assert_eq!(d.max_latency(), SimDuration::ZERO);
        }
    }
}
