//! Proximity-neighbor selection through the global soft-state.
//!
//! The heart of the paper: "when a node is looking for candidates in a
//! high-order zone Z that is close to it, it uses its own landmark number to
//! index into Z's map" (Table 1), receives up to X candidates ranked by
//! landmark-vector distance, RTT-measures them, and records the node with
//! the smallest RTT.

use tao_util::det::DetMap;

use tao_overlay::ecan::{BoxSelection, NeighborSelector};
use tao_overlay::{CanOverlay, OverlayNodeId, Zone};
use tao_sim::SimTime;
use tao_softstate::{GlobalState, LookupScratch, NodeInfo, RegionKey};
use tao_topology::RttOracle;
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

/// What one selector did over its lifetime — one table pass, or the
/// `reselect_node`s of one membership change. Deterministic counts; all
/// but `fragment_walks` are simulated work, which no memory changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SelectorStats {
    /// Representatives chosen: candidates probed, or the fallback drawn.
    pub selections: u64,
    /// Hosted lookups made.
    pub lookups: u64,
    /// `(region, host)` fragments walked; the other lookups found theirs
    /// remembered — by this selector or in the scratch it was lent.
    pub fragment_walks: u64,
    /// RTT probes spent.
    pub probes: u64,
    /// Selections that found no usable candidate and drew at random.
    pub fallbacks: u64,
}

/// A [`NeighborSelector`] backed by the global soft-state maps.
///
/// For each `(node, neighboring high-order zone)` pair it:
///
/// 1. looks up the zone's map with the node's landmark number,
/// 2. takes the top `rtt_budget` candidates (ranked inside the map by full
///    landmark-vector distance),
/// 3. RTT-probes each (charged through the [`RttOracle`] meter),
/// 4. picks the candidate with the smallest measured RTT.
///
/// When the map has no usable candidates (not yet published, expired, or
/// condensed away), it falls back to a random member — the same behaviour a
/// fresh deployment would exhibit.
#[derive(Debug)]
pub struct GlobalStateSelector<'a> {
    state: &'a GlobalState,
    oracle: &'a RttOracle,
    infos: &'a DetMap<OverlayNodeId, NodeInfo>,
    rtt_budget: usize,
    now: SimTime,
    fallback_rng: StdRng,
    /// Lookup buffers and remembered host fragments: the selector's own,
    /// or the system's, lent for the pass ([`Self::lend`]).
    scratch: LookupScratch,
    /// `scratch.fragment_walks()` when the scratch arrived.
    walks_before: u64,
    /// The `(node, box, CAN membership)` `select_in_box` last answered
    /// `Enumerate` for: `select` for the same would look up the same
    /// nothing — state and `now` are fixed for the selector's life.
    found_nobody: Option<(OverlayNodeId, RegionKey, usize, usize)>,
    stats: SelectorStats,
}

impl<'a> GlobalStateSelector<'a> {
    /// Creates a selector.
    ///
    /// # Panics
    ///
    /// Panics if `rtt_budget` is zero.
    pub fn new(
        state: &'a GlobalState,
        oracle: &'a RttOracle,
        infos: &'a DetMap<OverlayNodeId, NodeInfo>,
        rtt_budget: usize,
        now: SimTime,
        seed: u64,
    ) -> Self {
        assert!(rtt_budget > 0, "rtt_budget must be at least 1");
        GlobalStateSelector {
            state,
            oracle,
            infos,
            rtt_budget,
            now,
            fallback_rng: StdRng::seed_from_u64(seed),
            scratch: LookupScratch::default(),
            walks_before: 0,
            found_nobody: None,
            stats: SelectorStats::default(),
        }
    }

    /// Makes the lookups through `scratch` — a system's, which outlives
    /// its passes — until [`Self::finish`] hands it back.
    pub(crate) fn lend(mut self, scratch: LookupScratch) -> Self {
        self.walks_before = scratch.fragment_walks();
        self.scratch = scratch;
        self
    }

    /// The counts and the scratch, at the end of the pass.
    pub(crate) fn finish(self) -> (SelectorStats, LookupScratch) {
        (self.stats(), self.scratch)
    }

    /// What this selector has done so far.
    pub fn stats(&self) -> SelectorStats {
        let fragment_walks = self.scratch.fragment_walks() - self.walks_before;
        SelectorStats {
            fragment_walks,
            ..self.stats
        }
    }

    /// Names `(for_node, target_box)` on this CAN, if the box has a key.
    fn asked(
        for_node: OverlayNodeId,
        target_box: &Zone,
        can: &CanOverlay,
    ) -> Option<(OverlayNodeId, RegionKey, usize, usize)> {
        Some((
            for_node,
            RegionKey::from_zone(target_box)?,
            can.id_bound(),
            can.len(),
        ))
    }

    /// Steps 1–4 for one box: hosted lookup, RTT probes of the candidates
    /// `is_member` accepts, minimum `(rtt, id)`. The map may still list
    /// nodes that have since departed or no longer own space in this box,
    /// so only members are probed; with none, nothing has been charged.
    fn closest_probed(
        &mut self,
        for_node: OverlayNodeId,
        target_box: &Zone,
        can: &CanOverlay,
        is_member: impl Fn(OverlayNodeId) -> bool,
    ) -> Option<OverlayNodeId> {
        let me = can.underlay(for_node);
        #[expect(clippy::expect_used, reason = "selecting node has published info")]
        let query = self
            .infos
            .get(&for_node)
            .expect("selecting node has published info");
        self.stats.lookups += 1;
        let found = self.state.lookup_in_hosted_into(
            &mut self.scratch,
            target_box,
            query,
            self.rtt_budget,
            can,
            self.now,
        );
        found
            .filter(|i| is_member(i.node))
            .map(|i| {
                self.stats.probes += 1;
                (self.oracle.measure(me, i.underlay), i.node)
            })
            .min_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(_, node)| node)
    }
}

impl NeighborSelector for GlobalStateSelector<'_> {
    fn select(
        &mut self,
        for_node: OverlayNodeId,
        target_box: &Zone,
        candidates: &[OverlayNodeId],
        can: &CanOverlay,
    ) -> OverlayNodeId {
        // The contract is "one of `candidates`", which arrive sorted by id
        // (`nodes_in` order, the selecting node removed).
        let listed = |n: OverlayNodeId| candidates.binary_search(&n).is_ok();
        self.stats.selections += 1;
        // The members listed are the members `select_in_box` tested for, so
        // where it found nobody a second lookup finds nobody again.
        let asked = self.found_nobody;
        let known_empty = asked.is_some() && asked == Self::asked(for_node, target_box, can);
        let chosen = if known_empty {
            None
        } else {
            self.closest_probed(for_node, target_box, can, listed)
        };
        chosen.unwrap_or_else(|| {
            self.stats.fallbacks += 1;
            candidates[self.fallback_rng.gen_range(0..candidates.len())]
        })
    }

    /// Table 1 as the paper runs it: the box's map names the candidates,
    /// and one is a member exactly when it is live and owns space in the
    /// box — `nodes_in` membership, the lookup having dropped `for_node` —
    /// so the box is never listed. With no usable candidate the answer is
    /// `Enumerate`: [`NeighborSelector::select`] then finds the same
    /// nothing and makes the seeded fallback draw over the listed members.
    // Deliberately not marked as a tao-lint hot entry: this reaches
    // `RttOracle::measure`, whose row fallback (graphs that do not factor)
    // allocates a Dijkstra row per source.
    fn select_in_box(
        &mut self,
        for_node: OverlayNodeId,
        target_box: &Zone,
        can: &CanOverlay,
    ) -> BoxSelection {
        let member = |n: OverlayNodeId| can.zone_intersects(n, target_box) == Ok(true);
        let chosen = self.closest_probed(for_node, target_box, can, member);
        self.stats.selections += u64::from(chosen.is_some());
        if chosen.is_none() {
            self.found_nobody = Self::asked(for_node, target_box, can);
        }
        chosen.map_or(BoxSelection::Enumerate, BoxSelection::Chosen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_landmark::{LandmarkGrid, LandmarkVector};
    use tao_overlay::ecan::{EcanOverlay, RandomSelector};
    use tao_overlay::Point;
    use tao_sim::SimDuration;
    use tao_softstate::SoftStateConfig;
    use tao_topology::{generate_transit_stub, LatencyAssignment, NodeIdx, TransitStubParams};
    use tao_util::rand::rngs::StdRng;

    struct Fixture {
        oracle: RttOracle,
        ecan: EcanOverlay,
        state: GlobalState,
        infos: DetMap<OverlayNodeId, NodeInfo>,
    }

    const LANDMARKS: [NodeIdx; 3] = [NodeIdx(5), NodeIdx(300), NodeIdx(700)];

    /// What `id` on router `underlay` would publish.
    fn measured_info(
        id: OverlayNodeId,
        underlay: NodeIdx,
        oracle: &RttOracle,
        config: &SoftStateConfig,
    ) -> NodeInfo {
        let vector = LandmarkVector::measure(underlay, &LANDMARKS, oracle);
        let number = config.grid().landmark_number(&vector, config.curve());
        NodeInfo {
            node: id,
            underlay,
            vector,
            number,
            load: None,
        }
    }

    fn fixture() -> Fixture {
        let topo = generate_transit_stub(
            &TransitStubParams::tsk_small_mini(),
            LatencyAssignment::manual(),
            41,
        );
        let oracle = RttOracle::new(topo.graph().clone());
        oracle.warm(&LANDMARKS);
        let mut can = CanOverlay::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let n_routers = topo.graph().node_count() as u32;
        for i in 0..256u32 {
            can.join(NodeIdx((i * 37) % n_routers), Point::random(2, &mut rng));
        }
        let ecan = EcanOverlay::build(can, &mut RandomSelector::new(0));
        let grid = LandmarkGrid::new(3, 5, SimDuration::from_millis(400)).unwrap();
        let config = SoftStateConfig::builder(grid).build();
        let mut state = GlobalState::new(config);
        let mut infos = DetMap::new();
        for id in ecan.can().live_nodes() {
            let info = measured_info(id, ecan.can().underlay(id), &oracle, &config);
            state.publish(info.clone(), &ecan, SimTime::ORIGIN);
            infos.insert(id, info);
        }
        Fixture {
            oracle,
            ecan,
            state,
            infos,
        }
    }

    /// The fixture after churn nobody told the maps about: 40 nodes gone
    /// (their entries linger, their takers own extra zones), 30 arrivals
    /// that halved somebody's zone, every other one of them unpublished.
    fn churned_fixture() -> Fixture {
        let mut f = fixture();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..40 {
            let live: Vec<OverlayNodeId> = f.ecan.can().live_nodes().collect();
            let gone = live[rng.gen_range(0..live.len())];
            f.ecan.depart(gone).unwrap();
            f.infos.remove(&gone);
        }
        let config = *f.state.config();
        for i in 0..30u32 {
            let underlay = NodeIdx(11 + i * 29);
            let id = f.ecan.join_unselected(underlay, Point::random(2, &mut rng));
            let info = measured_info(id, underlay, &f.oracle, &config);
            if i % 2 == 0 {
                f.state.publish(info.clone(), &f.ecan, SimTime::ORIGIN);
            }
            f.infos.insert(id, info);
        }
        f
    }

    /// The list-path reference: a [`GlobalStateSelector`] behind a wrapper
    /// that counts the lists it is handed and implements only `select`, with
    /// eCAN's concrete signature — the shape of the benchmark package's
    /// traced selector, so a change to [`NeighborSelector`] that would stop
    /// such a selector compiling fails here. Without `select_in_box`, every
    /// box is enumerated.
    struct Wrapped<'a> {
        inner: GlobalStateSelector<'a>,
        lists: u64,
    }

    impl NeighborSelector for Wrapped<'_> {
        fn select(
            &mut self,
            for_node: OverlayNodeId,
            target_box: &Zone,
            candidates: &[OverlayNodeId],
            can: &CanOverlay,
        ) -> OverlayNodeId {
            self.lists += 1;
            self.inner.select(for_node, target_box, candidates, can)
        }
    }

    /// The membership path: [`Wrapped`] with `select_in_box` forwarded, and
    /// the boxes it is asked about counted.
    struct Counted<'a> {
        listed: Wrapped<'a>,
        boxes: u64,
    }

    impl NeighborSelector for Counted<'_> {
        fn select(
            &mut self,
            for_node: OverlayNodeId,
            target_box: &Zone,
            candidates: &[OverlayNodeId],
            can: &CanOverlay,
        ) -> OverlayNodeId {
            self.listed.select(for_node, target_box, candidates, can)
        }

        fn select_in_box(
            &mut self,
            for_node: OverlayNodeId,
            target_box: &Zone,
            can: &CanOverlay,
        ) -> BoxSelection {
            self.boxes += 1;
            self.listed.inner.select_in_box(for_node, target_box, can)
        }
    }

    /// What one full pass computed and what it cost.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        tables: Vec<Vec<tao_overlay::ecan::HighOrderEntry>>,
        probes_spent: u64,
        fallbacks: u64,
        /// Measurements the oracle's meter was charged during the pass.
        charged: u64,
    }

    impl Outcome {
        fn selections(&self) -> u64 {
            self.tables.iter().map(|t| t.len() as u64).sum()
        }
    }

    /// One full pass over `f`'s overlay, and the lists it made.
    fn pass(f: &Fixture, state: &GlobalState, budget: usize, whole_box: bool) -> (Outcome, u64) {
        let mut ecan = f.ecan.clone();
        let before = f.oracle.measurements();
        let inner =
            GlobalStateSelector::new(state, &f.oracle, &f.infos, budget, SimTime::ORIGIN, 9);
        let mut sel = Counted {
            listed: Wrapped { inner, lists: 0 },
            boxes: 0,
        };
        if whole_box {
            ecan.reselect(&mut sel);
        } else {
            ecan.reselect(&mut sel.listed);
        }
        ecan.check_invariants();
        let (inner, lists) = (&sel.listed.inner, sel.listed.lists);
        let outcome = Outcome {
            tables: ecan
                .can()
                .live_nodes()
                .map(|id| ecan.high_order_entries(id))
                .collect(),
            probes_spent: inner.stats().probes,
            fallbacks: inner.stats().fallbacks,
            charged: f.oracle.measurements() - before,
        };
        let stats = inner.stats();
        assert_eq!(
            stats.selections,
            outcome.selections(),
            "one selection per entry"
        );
        // One lookup per box asked about — none again for the fallback draw
        // — or, on the reference path, one per list.
        assert_eq!(stats.lookups, if whole_box { sel.boxes } else { lists });
        assert!(stats.fragment_walks <= stats.lookups);
        (outcome, lists)
    }

    #[test]
    fn a_scratch_lent_from_selector_to_selector_never_shows() {
        // One scratch outlives five selectors. Between selectors one thing
        // changes at a time — the state, the CAN's size, the clock — and
        // half-way through the last selector eight departures and eight
        // joins leave the CAN as large as it was. Tables, counts and the
        // meter must equal those of a selector lent an empty scratch before
        // every node.
        let mut f = churned_fixture();
        let config = *f.state.config();
        let mut rng = StdRng::seed_from_u64(12);
        let mut now = SimTime::ORIGIN;
        let mut lent = LookupScratch::default();
        for round in 0..5u32 {
            let live: Vec<OverlayNodeId> = f.ecan.can().live_nodes().collect();
            let run = |arriving: Option<LookupScratch>| {
                let forget = arriving.is_none();
                let mut ecan = f.ecan.clone();
                let before = f.oracle.measurements();
                let mut sel = GlobalStateSelector::new(&f.state, &f.oracle, &f.infos, 10, now, 9)
                    .lend(arriving.unwrap_or_default());
                let half = live.len() / 2;
                for (i, &id) in live.iter().enumerate() {
                    if round == 4 && (half..half + 8).contains(&i) {
                        ecan.depart(id).unwrap();
                        let at = Point::new(vec![0.11 * i as f64 % 1.0, 0.2 * f64::from(round)])
                            .unwrap();
                        ecan.join_unselected(NodeIdx(3 + round), at);
                        continue;
                    }
                    if forget {
                        sel = sel.lend(LookupScratch::default());
                    }
                    ecan.reselect_node(id, &mut sel);
                }
                let (stats, scratch) = sel.finish();
                let outcome = Outcome {
                    tables: live.iter().map(|&id| ecan.high_order_entries(id)).collect(),
                    probes_spent: stats.probes,
                    fallbacks: stats.fallbacks,
                    charged: f.oracle.measurements() - before,
                };
                (outcome, stats, scratch)
            };
            let (want, forgetful, _) = run(None);
            let (got, stats, back) = run(Some(std::mem::take(&mut lent)));
            lent = back;
            assert_eq!(got, want, "round {round}");
            assert_eq!(
                (stats.selections, stats.lookups),
                (forgetful.selections, forgetful.lookups)
            );
            assert!(
                stats.fragment_walks * 2 < stats.lookups,
                "round {round}: {stats:?}"
            );

            let mut pick = |f: &Fixture| {
                let live: Vec<OverlayNodeId> = f.ecan.can().live_nodes().collect();
                live[rng.gen_range(0..live.len())]
            };
            match round {
                // The state alone: withdrawals and changed vectors.
                0 => {
                    for k in 0..20 {
                        f.state.remove(pick(&f));
                        let moved = pick(&f);
                        let info = measured_info(moved, NodeIdx(23 + 31 * k), &f.oracle, &config);
                        f.state.publish(info.clone(), &f.ecan, now);
                        f.infos.insert(moved, info);
                    }
                }
                // The CAN alone: ten departures nobody told the maps about.
                1 => {
                    for _ in 0..10 {
                        let gone = pick(&f);
                        f.ecan.depart(gone).unwrap();
                        f.infos.remove(&gone);
                    }
                }
                // The state again, invisibly at this clock: half refresh...
                2 => {
                    for &id in live.iter().filter(|id| id.0 % 2 == 0) {
                        f.state.refresh(id, now + config.ttl() / 2);
                    }
                }
                // ...and the clock alone: the other half has lapsed.
                _ => now = SimTime::ORIGIN + config.ttl(),
            }
        }
    }

    #[test]
    fn membership_path_equals_the_list_path_on_stale_maps() {
        let f = churned_fixture();
        let empty = GlobalState::new(*f.state.config());
        for state in [&f.state, &empty] {
            for budget in [1, 10, 40] {
                let (got, lists) = pass(&f, state, budget, true);
                let (want, ref_lists) = pass(&f, state, budget, false);
                assert_eq!(got, want, "budget {budget}");
                assert_eq!(
                    got.probes_spent, got.charged,
                    "every probe goes through the meter"
                );
                assert_eq!(
                    ref_lists,
                    want.selections(),
                    "the reference lists every box"
                );
                assert!(lists <= ref_lists);
            }
        }
    }

    #[test]
    fn a_box_is_listed_only_for_the_fallback_draw() {
        let f = churned_fixture();
        let (got, lists) = pass(&f, &f.state, 10, true);
        assert_eq!(
            lists, got.fallbacks,
            "a list was made that no fallback draw needed"
        );
        assert!(
            got.fallbacks > 0,
            "stale maps must leave some box without a usable candidate"
        );
        assert!(
            got.fallbacks * 2 < got.selections(),
            "{} fallbacks",
            got.fallbacks
        );
        // With nothing published every selection is a fallback over a list.
        let empty = GlobalState::new(*f.state.config());
        let (got, lists) = pass(&f, &empty, 10, true);
        let selections = got.selections();
        assert_eq!(
            (lists, got.fallbacks, got.probes_spent),
            (selections, selections, 0)
        );
    }

    #[test]
    fn selector_stays_within_probe_budget_per_choice() {
        let f = fixture();
        let mut ecan = f.ecan.clone();
        let mut sel =
            GlobalStateSelector::new(&f.state, &f.oracle, &f.infos, 5, SimTime::ORIGIN, 1);
        let live: Vec<OverlayNodeId> = ecan.can().live_nodes().collect();
        ecan.reselect_node(live[0], &mut sel);
        let entries = ecan.high_order_entries(live[0]).len() as u64;
        assert!(
            sel.stats().probes <= entries * 5,
            "spent {} probes for {} entries",
            sel.stats().probes,
            entries
        );
    }

    #[test]
    fn chosen_representative_is_a_member_of_the_target_box() {
        let f = fixture();
        let mut ecan = f.ecan.clone();
        let mut sel =
            GlobalStateSelector::new(&f.state, &f.oracle, &f.infos, 10, SimTime::ORIGIN, 2);
        ecan.reselect(&mut sel);
        for id in ecan.can().live_nodes() {
            for e in ecan.high_order_entries(id) {
                let members = ecan.can().nodes_in(&e.target_box);
                assert!(members.contains(&e.representative));
            }
        }
    }

    #[test]
    fn bigger_budgets_pick_closer_representatives_on_average() {
        let f = fixture();
        let mean_rep_distance = |budget: usize| -> f64 {
            let mut ecan = f.ecan.clone();
            let mut sel =
                GlobalStateSelector::new(&f.state, &f.oracle, &f.infos, budget, SimTime::ORIGIN, 3);
            ecan.reselect(&mut sel);
            let mut total = 0.0;
            let mut count = 0;
            for id in ecan.can().live_nodes() {
                let me = ecan.can().underlay(id);
                for e in ecan.high_order_entries(id) {
                    total += f
                        .oracle
                        .ground_truth(me, ecan.can().underlay(e.representative))
                        .as_millis_f64();
                    count += 1;
                }
            }
            total / count as f64
        };
        let with_1 = mean_rep_distance(1);
        let with_20 = mean_rep_distance(20);
        assert!(
            with_20 <= with_1,
            "budget 20 ({with_20:.2}ms) should beat budget 1 ({with_1:.2}ms)"
        );
    }

    #[test]
    fn empty_state_falls_back_to_random_members() {
        let f = fixture();
        let empty = GlobalState::new(*f.state.config());
        let mut ecan = f.ecan.clone();
        let mut sel = GlobalStateSelector::new(&empty, &f.oracle, &f.infos, 5, SimTime::ORIGIN, 4);
        ecan.reselect(&mut sel);
        assert!(sel.stats().fallbacks > 0);
        assert_eq!(sel.stats().probes, 0, "no candidates, no probes");
    }
}
