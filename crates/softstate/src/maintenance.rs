//! Soft-state maintenance policies (§5.2).
//!
//! "The global state can be lazily maintained. In the most reactive case,
//! departed nodes are deleted from the global state only when they are
//! selected as routing neighbor replacements and later found un-reachable.
//! Alternatively, each owner of the map information can periodically poll
//! the liveliness of the nodes. The most proactive measure is to update the
//! map when a node is about to depart."
//!
//! [`MaintenancePolicy`] encodes the three regimes; `apply_departure`
//! executes one departure under a policy against a [`GlobalState`] and
//! accounts its cost/staleness trade-off in a [`MaintenanceReport`].

use tao_overlay::ecan::EcanOverlay;
use tao_overlay::OverlayNodeId;
use tao_util::time::{SimDuration, SimTime};

use crate::entry::NodeInfo;
use crate::store::GlobalState;

/// How the global state learns about departures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenancePolicy {
    /// Entries of departed nodes linger until a consumer trips over them
    /// (modelled as: entries stay until their TTL lapses).
    Reactive,
    /// Map owners poll liveness every `period`; a departed node's entries
    /// disappear at the next poll tick after its departure.
    PeriodicPoll {
        /// The polling period.
        period: SimDuration,
    },
    /// The departing node withdraws its own entries immediately.
    ProactiveDeparture,
}

/// Cost/staleness accounting for maintenance activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaintenanceReport {
    /// Messages spent on maintenance (withdrawals, poll probes).
    pub messages: u64,
    /// How long the departed node's entries stayed visible after departure.
    pub staleness: SimDuration,
}

impl MaintenancePolicy {
    /// Applies one node departure at `departed_at` under this policy.
    ///
    /// * `Reactive` — nothing is sent; entries stay visible until their TTL
    ///   lapses (`ttl_remaining` is how much TTL the entries had left).
    /// * `PeriodicPoll` — at the next poll tick the owner probes the node
    ///   (1 message per map entry) and deletes its entries.
    /// * `ProactiveDeparture` — the node withdraws from every map it is in
    ///   (1 message per map) with zero staleness.
    ///
    /// Returns the report; the [`GlobalState`] is updated to reflect the
    /// policy's effect at the time it takes effect.
    pub fn apply_departure(
        self,
        state: &mut GlobalState,
        node: OverlayNodeId,
        departed_at: SimTime,
        ttl_remaining: SimDuration,
    ) -> MaintenanceReport {
        match self {
            MaintenancePolicy::Reactive => {
                // The entries will lapse on their own; staleness is the
                // remaining TTL. Nothing to send now.
                MaintenanceReport {
                    messages: 0,
                    staleness: ttl_remaining,
                }
            }
            MaintenancePolicy::PeriodicPoll { period } => {
                // The next tick after departure discovers the death. One
                // probe per map listing the node.
                let maps_touched = state.remove(node) as u64;
                let _ = departed_at;
                MaintenanceReport {
                    messages: maps_touched,
                    staleness: period / 2, // expected wait until the next tick
                }
            }
            MaintenancePolicy::ProactiveDeparture => {
                let maps_touched = state.remove(node) as u64;
                MaintenanceReport {
                    messages: maps_touched,
                    staleness: SimDuration::ZERO,
                }
            }
        }
    }
}

/// Accounting for one [`refresh_round`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefreshReport {
    /// Entries dropped by the TTL sweep at the start of the round.
    pub expired: usize,
    /// Map writes performed by refreshes that reached the state.
    pub refresh_messages: u64,
    /// Nodes whose refresh was lost this round (fault injection).
    pub lost: u64,
    /// Map entries recreated by a publish after having expired or never
    /// been written — the lazy-repair path in action.
    pub repaired: u64,
}

/// Runs one soft-state maintenance round at `now`: first the TTL sweep
/// ([`GlobalState::expire`]), then every node in `nodes` re-publishes its
/// [`NodeInfo`] — unless `lose` says that node's refresh is lost this round
/// (a crashed node, or a refresh eaten by the lossy network).
///
/// Because a publish is an upsert, a node whose earlier refreshes were lost
/// repairs its entries the first time a refresh gets through again: soft
/// state tolerates lost refreshes by design, and this helper is how the
/// convergence tests drive that behaviour. The returned [`RefreshReport`]
/// distinguishes plain refreshes from repairs (entries that had to be
/// recreated rather than re-stamped).
pub fn refresh_round(
    state: &mut GlobalState,
    ecan: &EcanOverlay,
    nodes: &[NodeInfo],
    now: SimTime,
    mut lose: impl FnMut(&NodeInfo) -> bool,
) -> RefreshReport {
    let mut report = RefreshReport {
        expired: state.expire(now),
        ..RefreshReport::default()
    };
    for info in nodes {
        if lose(info) {
            report.lost += 1;
            continue;
        }
        // An upsert publish both refreshes surviving entries and recreates
        // lapsed ones; the refresh count tells the two cases apart.
        let already_present = state.refresh(info.node, now) as u64;
        let written = state.publish(info.clone(), ecan, now) as u64;
        report.refresh_messages += written;
        report.repaired += written.saturating_sub(already_present);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SoftStateConfig;
    use crate::entry::NodeInfo;
    use tao_landmark::{LandmarkGrid, LandmarkVector};
    use tao_overlay::ecan::{EcanOverlay, RandomSelector};
    use tao_overlay::{CanOverlay, Point};
    use tao_topology::NodeIdx;
    use tao_util::rand::rngs::StdRng;
    use tao_util::rand::SeedableRng;

    fn published_state() -> (GlobalState, u64) {
        let mut can = CanOverlay::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(55);
        for i in 0..64u32 {
            can.join(NodeIdx(i), Point::random(2, &mut rng));
        }
        let ecan = EcanOverlay::build(can, &mut RandomSelector::new(3));
        let grid = LandmarkGrid::new(3, 5, SimDuration::from_millis(320)).unwrap();
        let mut state = GlobalState::new(SoftStateConfig::builder(grid).build());
        let vector = LandmarkVector::from_millis(&[20.0, 40.0, 60.0]);
        let number = state
            .config()
            .grid()
            .landmark_number(&vector, state.config().curve());
        let written = state.publish(
            NodeInfo {
                node: OverlayNodeId(7),
                underlay: NodeIdx(7),
                vector,
                number,
                load: None,
            },
            &ecan,
            SimTime::ORIGIN,
        );
        (state, written as u64)
    }

    #[test]
    fn reactive_sends_nothing_but_stays_stale() {
        let (mut state, _) = published_state();
        let before = state.total_entries();
        let r = MaintenancePolicy::Reactive.apply_departure(
            &mut state,
            OverlayNodeId(7),
            SimTime::ORIGIN,
            SimDuration::from_secs(30),
        );
        assert_eq!(r.messages, 0);
        assert_eq!(r.staleness, SimDuration::from_secs(30));
        assert_eq!(state.total_entries(), before, "entries linger");
    }

    #[test]
    fn proactive_withdraws_immediately() {
        let (mut state, written) = published_state();
        let r = MaintenancePolicy::ProactiveDeparture.apply_departure(
            &mut state,
            OverlayNodeId(7),
            SimTime::ORIGIN,
            SimDuration::from_secs(30),
        );
        assert_eq!(r.messages, written);
        assert_eq!(r.staleness, SimDuration::ZERO);
        assert_eq!(state.total_entries(), 0);
    }

    #[test]
    fn refresh_round_repairs_entries_lost_to_dropped_refreshes() {
        let mut can = CanOverlay::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(56);
        for i in 0..64u32 {
            can.join(NodeIdx(i), Point::random(2, &mut rng));
        }
        let ecan = EcanOverlay::build(can, &mut RandomSelector::new(4));
        let grid = LandmarkGrid::new(3, 5, SimDuration::from_millis(320)).unwrap();
        let mut state = GlobalState::new(SoftStateConfig::builder(grid).build());
        let infos: Vec<NodeInfo> = (0..64u32)
            .map(|i| {
                let vector = LandmarkVector::from_millis(&[10.0 + i as f64, 50.0, 90.0]);
                let number = state
                    .config()
                    .grid()
                    .landmark_number(&vector, state.config().curve());
                NodeInfo {
                    node: OverlayNodeId(i),
                    underlay: NodeIdx(i),
                    vector,
                    number,
                    load: None,
                }
            })
            .collect();
        let ttl = state.config().ttl();
        // Round 0: everything is a repair (first write).
        let r0 = refresh_round(&mut state, &ecan, &infos, SimTime::ORIGIN, |_| false);
        assert_eq!(r0.lost, 0);
        assert!(r0.repaired > 0, "first round creates all entries");
        assert_eq!(r0.repaired, r0.refresh_messages);
        // Round 1 (within TTL): pure refresh, nothing to repair.
        let t1 = SimTime::ORIGIN + ttl.mul_f64(0.5);
        let r1 = refresh_round(&mut state, &ecan, &infos, t1, |_| false);
        assert_eq!(r1.repaired, 0, "nothing expired yet");
        assert_eq!(r1.expired, 0);
        // Node 7's refreshes are lost until its entries lapse...
        let t2 = t1 + ttl + SimDuration::from_secs(1);
        let r2 = refresh_round(&mut state, &ecan, &infos, t2, |i| {
            i.node == OverlayNodeId(7)
        });
        assert_eq!(r2.lost, 1);
        assert!(r2.expired > 0, "node 7's entries lapsed");
        // ...and the next round that gets through repairs them.
        let t3 = t2 + ttl.mul_f64(0.5);
        let r3 = refresh_round(&mut state, &ecan, &infos, t3, |_| false);
        assert!(r3.repaired > 0, "node 7's entries must be recreated");
        let report = state.convergence_report(&ecan, &infos, t3);
        assert!(report.is_converged(), "diverged: {report:?}");
    }

    #[test]
    fn polling_pays_messages_for_bounded_staleness() {
        let (mut state, written) = published_state();
        let r = MaintenancePolicy::PeriodicPoll {
            period: SimDuration::from_secs(10),
        }
        .apply_departure(
            &mut state,
            OverlayNodeId(7),
            SimTime::ORIGIN,
            SimDuration::from_secs(30),
        );
        assert_eq!(r.messages, written);
        assert_eq!(r.staleness, SimDuration::from_secs(5));
        assert_eq!(state.total_entries(), 0);
    }
}
