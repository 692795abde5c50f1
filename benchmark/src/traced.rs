//! The traced replay of `tao-core`'s entry points.
//!
//! End-to-end numbers come from the opaque calls users make
//! (`TaoBuilder::build_on`, `measure_routing_stretch`, `join_node`, …).
//! The traced run cannot see inside those, so it replays each as the
//! explicit sequence of public layer calls the entry point makes, with a
//! span around every call. [`TracedSystem`] mirrors
//! `tao_core::TopologyAwareOverlay` statement for statement and
//! [`TracedSelector`] mirrors `tao_core::GlobalStateSelector`; each
//! workload checks that the replay reproduces the opaque run's
//! fingerprint and refuses the trace otherwise (the library changed
//! under the replay, and the replay must follow it).

use tao_core::{ExperimentParams, StretchSummary};
use tao_landmark::{LandmarkGrid, LandmarkVector, SpaceFillingCurve};
use tao_overlay::ecan::{EcanOverlay, NeighborSelector, RandomSelector};
use tao_overlay::{CanOverlay, OverlayNodeId, Point, Zone};
use tao_sim::{SimDuration, SimTime};
use tao_softstate::pubsub::{self, Predicate, PubSub};
use tao_softstate::{GlobalState, NodeInfo, SoftStateConfig};
use tao_topology::landmarks::{select_landmarks, LandmarkStrategy};
use tao_topology::{NodeIdx, RttOracle, Topology};
use tao_util::det::DetMap;
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

use crate::harness::Checks;
use crate::trace::{Sp, Tracer};

/// Counters taken where the selection work happens.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelectorStats {
    pub selections: u64,
    pub probes: u64,
    pub fallbacks: u64,
    pub lookups: u64,
    /// Candidates the map lookups returned, before the liveness filter.
    pub candidates: u64,
    /// Lookups that yielded at least one usable candidate.
    pub useful_lookups: u64,
    /// Selections that spent more than `rtt_budget` probes (a failure).
    pub over_budget: u64,
}

/// `GlobalStateSelector`'s steps through `GlobalState::lookup_in_hosted`
/// and `RttOracle::measure`, with a span around each.
pub struct TracedSelector<'a> {
    tr: &'a Tracer,
    state: &'a GlobalState,
    oracle: &'a RttOracle,
    infos: &'a DetMap<OverlayNodeId, NodeInfo>,
    rtt_budget: usize,
    now: SimTime,
    fallback_rng: StdRng,
    stats: &'a mut SelectorStats,
}

impl NeighborSelector for TracedSelector<'_> {
    fn select(
        &mut self,
        for_node: OverlayNodeId,
        target_box: &Zone,
        candidates: &[OverlayNodeId],
        can: &CanOverlay,
    ) -> OverlayNodeId {
        let tr = self.tr;
        tr.op(Sp::CoreSelect, || {
            self.stats.selections += 1;
            let me = can.underlay(for_node);
            let query = self
                .infos
                .get(&for_node)
                .expect("selecting node has published info");
            self.stats.lookups += 1;
            let found = tr.op(Sp::SsLookup, || {
                self.state
                    .lookup_in_hosted(target_box, query, self.rtt_budget, can, self.now)
            });
            self.stats.candidates += found.len() as u64;
            let usable: Vec<&NodeInfo> = found
                .iter()
                .filter(|i| candidates.binary_search(&i.node).is_ok())
                .collect();
            if usable.is_empty() {
                self.stats.fallbacks += 1;
                return candidates[self.fallback_rng.gen_range(0..candidates.len())];
            }
            self.stats.useful_lookups += 1;
            self.stats.over_budget += u64::from(usable.len() > self.rtt_budget);
            usable
                .into_iter()
                .map(|i| {
                    self.stats.probes += 1;
                    (
                        tr.op(Sp::TopoMeasure, || self.oracle.measure(me, i.underlay)),
                        i.node,
                    )
                })
                .min_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)))
                .expect("usable is non-empty")
                .1
        })
    }
}

/// `TopologyAwareOverlay::measure_routing_stretch`, one span per route
/// and per ground-truth read, with the per-route output checks the
/// opaque call hides: the route must succeed, end at the target's owner,
/// and stretch ≥ 1. Returns the summary and the total hop count.
pub fn measure_routing_stretch(
    tr: &Tracer,
    ecan: &EcanOverlay,
    oracle: &RttOracle,
    dims: usize,
    routes: usize,
    seed: u64,
    checks: &mut Checks,
) -> (StretchSummary, u64) {
    tr.span(Sp::CoreMeasureStretch, || {
        let can = ecan.can();
        let mut rng = StdRng::seed_from_u64(seed);
        let live: Vec<OverlayNodeId> = can.live_nodes().collect();
        let mut summary = StretchSummary::new();
        let mut hops = 0u64;
        for _ in 0..routes {
            let src = live[rng.gen_range(0..live.len())];
            let target = Point::random(dims, &mut rng);
            let Ok(route) = tr.op(Sp::OvRouteAlloc, || ecan.route_express(src, &target)) else {
                checks.check(false);
                continue;
            };
            hops += route.hop_count() as u64;
            let dst = *route.hops.last().expect("routes are non-empty");
            checks.check(can.owns_point(dst, &target) == Ok(true));
            if route.hop_count() == 0 {
                continue;
            }
            let direct = tr.op(Sp::TopoGroundTruth, || {
                oracle.ground_truth(can.underlay(src), can.underlay(dst))
            });
            if direct.is_zero() {
                continue;
            }
            let mut path = SimDuration::ZERO;
            for w in route.hops.windows(2) {
                path += tr.op(Sp::TopoGroundTruth, || {
                    oracle.ground_truth(can.underlay(w[0]), can.underlay(w[1]))
                });
            }
            let stretch = path / direct;
            checks.check(stretch >= 1.0 - 1e-9);
            summary.add(stretch);
        }
        (summary, hops)
    })
}

/// `TopologyAwareOverlay`, rebuilt from public layer calls.
pub struct TracedSystem<'t> {
    tr: &'t Tracer,
    pub oracle: RttOracle,
    landmarks: Vec<NodeIdx>,
    params: ExperimentParams,
    pub ecan: EcanOverlay,
    pub state: GlobalState,
    pub pubsub: PubSub,
    infos: DetMap<OverlayNodeId, NodeInfo>,
    pub now: SimTime,
    pub sel: SelectorStats,
    /// Subscribers notified by joins, for `softstate.notified_per_join`.
    pub notified: u64,
}

impl<'t> TracedSystem<'t> {
    /// `TaoBuilder::new().params(params).seed(seed).build_on(topology)`
    /// with the GlobalState strategy.
    pub fn build_on(
        tr: &'t Tracer,
        params: ExperimentParams,
        seed: u64,
        topology: &Topology,
    ) -> Self {
        tr.span(Sp::CoreBuildOn, || {
            params.validate();
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x7a0));
            let oracle = tr.span(Sp::TopoOracleNew, || {
                RttOracle::new(topology.graph().clone())
            });

            let landmarks = tr.span(Sp::TopoSelectLandmarks, || {
                select_landmarks(
                    topology.graph(),
                    params.landmarks,
                    LandmarkStrategy::Random,
                    &mut rng,
                )
            });
            tr.span(Sp::TopoWarm, || oracle.warm(&landmarks));

            let participants = tr.span(Sp::TopoSampleNodes, || {
                topology.sample_nodes(params.overlay_nodes, &mut rng)
            });
            let mut can = CanOverlay::new(params.dims).expect("dims >= 2");
            for &router in &participants {
                let point = Point::random(params.dims, &mut rng);
                tr.span(Sp::OvCanJoin, || can.join(router, point));
            }

            let mut ceiling = SimDuration::from_millis(1);
            for (i, &a) in landmarks.iter().enumerate() {
                for &b in &landmarks[i + 1..] {
                    ceiling = ceiling.max(tr.op(Sp::TopoGroundTruth, || oracle.ground_truth(a, b)));
                }
            }
            let grid =
                LandmarkGrid::new(params.landmark_vector_index, params.grid_bits, ceiling * 2)
                    .expect("validated grid parameters");
            let config = SoftStateConfig::builder(grid)
                .curve(SpaceFillingCurve::Hilbert)
                .condense_rate(params.condense_rate)
                .build();
            let mut infos = DetMap::new();
            for id in can.live_nodes().collect::<Vec<_>>() {
                let underlay = can.underlay(id);
                let vector = tr.span(Sp::LmVector, || {
                    LandmarkVector::measure(underlay, &landmarks, &oracle)
                });
                let number = tr.span(Sp::LmNumber, || {
                    config.grid().landmark_number(&vector, config.curve())
                });
                infos.insert(
                    id,
                    NodeInfo {
                        node: id,
                        underlay,
                        vector,
                        number,
                        load: None,
                    },
                );
            }

            let mut ecan = tr.span(Sp::OvEcanBuild, || {
                EcanOverlay::build(can, &mut RandomSelector::new(seed))
            });
            let mut state = GlobalState::new(config);
            let now = SimTime::ORIGIN;
            for info in infos.values() {
                tr.span(Sp::SsPublish, || state.publish(info.clone(), &ecan, now));
            }
            let mut sel = SelectorStats::default();
            tr.span(Sp::CoreReselect, || {
                let mut selector = TracedSelector {
                    tr,
                    state: &state,
                    oracle: &oracle,
                    infos: &infos,
                    rtt_budget: params.rtt_budget,
                    now,
                    fallback_rng: StdRng::seed_from_u64(seed.wrapping_add(0x5e1)),
                    stats: &mut sel,
                };
                tr.span(Sp::OvReselect, || ecan.reselect(&mut selector));
            });

            TracedSystem {
                tr,
                oracle,
                landmarks,
                params,
                ecan,
                state,
                pubsub: PubSub::new(),
                infos,
                now,
                sel,
                notified: 0,
            }
        })
    }

    pub fn info(&self, id: OverlayNodeId) -> Option<&NodeInfo> {
        self.infos.get(&id)
    }

    pub fn advance(&mut self, by: SimDuration) {
        self.now += by;
    }

    pub fn measure_routing_stretch(
        &self,
        routes: usize,
        seed: u64,
        checks: &mut Checks,
    ) -> (StretchSummary, u64) {
        measure_routing_stretch(
            self.tr,
            &self.ecan,
            &self.oracle,
            self.params.dims,
            routes,
            seed,
            checks,
        )
    }

    /// `join_node`: CAN split → vector → number → publish → select →
    /// pub/sub notify → re-select.
    pub fn join_node(&mut self, underlay: NodeIdx) -> (OverlayNodeId, Vec<OverlayNodeId>) {
        let tr = self.tr;
        tr.span(Sp::CoreJoinNode, || {
            let mut rng = StdRng::seed_from_u64(self.now.as_micros() ^ u64::from(underlay.0));
            let point = Point::random(self.params.dims, &mut rng);
            let id = tr.span(Sp::OvJoinUnselected, || {
                self.ecan.join_unselected(underlay, point)
            });

            let vector = tr.span(Sp::LmVector, || {
                LandmarkVector::measure(underlay, &self.landmarks, &self.oracle)
            });
            let config = *self.state.config();
            let number = tr.span(Sp::LmNumber, || {
                config.grid().landmark_number(&vector, config.curve())
            });
            let info = NodeInfo {
                node: id,
                underlay,
                vector,
                number,
                load: None,
            };
            tr.span(Sp::SsPublish, || {
                self.state.publish(info.clone(), &self.ecan, self.now)
            });
            self.infos.insert(id, info.clone());

            let mut affected: Vec<OverlayNodeId> = tr.span(Sp::OvTableQueries, || {
                self.ecan.can().neighbors(id).unwrap_or_default()
            });
            affected.push(id);
            self.reselect_nodes(&affected);

            let mut notified = Vec::new();
            for zone in tr.span(Sp::OvTableQueries, || {
                self.ecan.enclosing_high_order_zones(id)
            }) {
                notified.extend(tr.span(Sp::SsPubsubPublish, || {
                    self.pubsub
                        .publish(&zone, &pubsub::Event::NodeJoined(info.clone()))
                }));
            }
            notified.sort();
            notified.dedup();
            notified.retain(|n| *n != id);
            self.notified += notified.len() as u64;
            self.reselect_nodes(&notified);
            (id, notified)
        })
    }

    /// `depart`: dependents → CAN leave → dependents re-select.
    pub fn depart(&mut self, node: OverlayNodeId) -> Result<(), tao_overlay::OverlayError> {
        let tr = self.tr;
        tr.span(Sp::CoreDepart, || {
            let dependents = tr.span(Sp::OvTableQueries, || self.ecan.dependents_of(node));
            tr.span(Sp::OvDepart, || self.ecan.depart(node))?;
            self.infos.remove(&node);
            self.reselect_nodes(&dependents);
            Ok(())
        })
    }

    /// The departing node's proactive withdrawal (§5.2): its entries
    /// leave every map, its subscriptions the registry.
    pub fn withdraw(&mut self, node: OverlayNodeId) {
        let tr = self.tr;
        tr.span(Sp::SsRemove, || self.state.remove(node));
        tr.span(Sp::SsPubsubSubscription, || {
            self.pubsub.unsubscribe_all(node)
        });
    }

    /// Runs `f` on the eCAN with a selector over the current soft-state.
    fn with_selector(
        &mut self,
        seed: u64,
        f: impl FnOnce(&mut EcanOverlay, &mut TracedSelector<'_>),
    ) {
        let mut selector = TracedSelector {
            tr: self.tr,
            state: &self.state,
            oracle: &self.oracle,
            infos: &self.infos,
            rtt_budget: self.params.rtt_budget,
            now: self.now,
            fallback_rng: StdRng::seed_from_u64(seed),
            stats: &mut self.sel,
        };
        f(&mut self.ecan, &mut selector);
    }

    pub fn reselect_nodes(&mut self, nodes: &[OverlayNodeId]) {
        let tr = self.tr;
        tr.span(Sp::CoreReselectNodes, || {
            self.with_selector(self.now.as_micros() ^ 0x5e2, |ecan, selector| {
                for &id in nodes {
                    tr.span(Sp::OvReselectNode, || ecan.reselect_node(id, selector));
                }
            });
        });
    }

    pub fn reselect(&mut self) {
        let tr = self.tr;
        tr.span(Sp::CoreReselect, || {
            self.with_selector(self.now.as_micros() ^ 0x5e1, |ecan, selector| {
                tr.span(Sp::OvReselect, || ecan.reselect(selector));
            });
        });
    }

    /// `tao_softstate::refresh_round` as its three store calls: the TTL
    /// sweep, then a refresh and an upsert publish per surviving node.
    /// Returns `(expired, repaired)`.
    pub fn refresh_round(
        &mut self,
        nodes: &[NodeInfo],
        mut lose: impl FnMut(&NodeInfo) -> bool,
    ) -> (u64, u64) {
        let tr = self.tr;
        tr.span(Sp::CoreRefreshRound, || {
            let expired = tr.span(Sp::SsExpire, || self.state.expire(self.now)) as u64;
            let mut repaired = 0;
            for info in nodes {
                if lose(info) {
                    continue;
                }
                let present =
                    tr.span(Sp::SsRefresh, || self.state.refresh(info.node, self.now)) as u64;
                let written = tr.span(Sp::SsPublish, || {
                    self.state.publish(info.clone(), &self.ecan, self.now)
                }) as u64;
                repaired += written.saturating_sub(present);
            }
            (expired, repaired)
        })
    }

    /// Subscribes `id` to joins in its smallest enclosing high-order zone.
    pub fn subscribe_to_joins(&mut self, id: OverlayNodeId) {
        let tr = self.tr;
        if let Some(zone) = tr
            .span(Sp::OvTableQueries, || {
                self.ecan.enclosing_high_order_zones(id)
            })
            .first()
        {
            tr.span(Sp::SsPubsubSubscription, || {
                self.pubsub.subscribe(zone, id, Predicate::NodeJoined)
            });
        }
    }
}
