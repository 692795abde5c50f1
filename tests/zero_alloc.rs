//! PR-10 runtime cross-check of the static `alloc-reachability` claim:
//! after one warm-up pass has sized every scratch buffer (the hop kernel's
//! candidate buffer included), `route_into` on every overlay — the CAN
//! family (CAN, eCAN, and a TA-CAN: a CAN joined at landmark-binned
//! points) on a join-only arena and on a churned one, since the kernel
//! reads takeover zones only on the latter — and the soft-state hosted
//! lookup through its `LookupScratch`, whose remembered `(region, host)`
//! fragments a warmed pass revisits — perform ZERO heap allocations, and
//! so does a sampled expressway pick
//! (`SampledRandomSelector::select_in_box`, one split-tree descent), on a
//! pristine overlay and on a churned one.
//!
//! The static pass (`tao-lint`'s `alloc-reachability`) proves the hot
//! closure of every `// tao-lint: hot` entry point free of allocation
//! sites, modulo the committed baseline of first-use scratch growth.
//! This test checks the same property dynamically with a counting
//! `#[global_allocator]`, so the analysis and reality ratchet each
//! other: a lint false negative shows up here, and a regression here
//! names the allocation site via the lint's witness chain.
//!
//! Everything lives in ONE `#[test]` so no concurrent test can bleed
//! allocations into the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tao_landmark::{LandmarkGrid, LandmarkVector};
use tao_overlay::chord::{ChordOverlay, RingId};
use tao_overlay::ecan::{BoxSelection, EcanOverlay, NeighborSelector, SampledRandomSelector};
use tao_overlay::keyed::KeyedOverlay;
use tao_overlay::pastry::{PastryId, PastryOverlay};
use tao_overlay::tacan::binned_join_point;
use tao_overlay::Zone;
use tao_overlay::{CanOverlay, OverlayError, OverlayNodeId, Point, RouteScratch};
use tao_sim::{SimDuration, SimTime};
use tao_softstate::{GlobalState, LookupScratch, NodeInfo, SoftStateConfig};
use tao_topology::NodeIdx;
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

/// Counts every allocator entry (alloc, realloc, alloc_zeroed) and
/// delegates to the system allocator. Deallocation is free and uncounted.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocator entries during `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    ALLOCS.load(Ordering::SeqCst) - before
}

const DIMS: usize = 2;
const CALLS: usize = 200;

fn churned_can(nodes: u32, leaves: usize, seed: u64) -> (CanOverlay, Vec<OverlayNodeId>) {
    let mut can = CanOverlay::new(DIMS).expect("2-d CAN");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids = Vec::new();
    for i in 0..nodes {
        ids.push(can.join(NodeIdx(i), Point::random(DIMS, &mut rng)));
    }
    for _ in 0..leaves {
        let victim = ids.swap_remove(rng.gen_range(0..ids.len()));
        can.leave(victim).expect("victim is live");
    }
    (can, ids)
}

fn can_family_calls(live: &[OverlayNodeId], seed: u64) -> Vec<(OverlayNodeId, Point)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..CALLS)
        .map(|_| {
            (
                live[rng.gen_range(0..live.len())],
                Point::random(DIMS, &mut rng),
            )
        })
        .collect()
}

#[test]
fn warmed_route_into_makes_zero_heap_allocations_on_all_five_overlays() {
    // --- setup (allocations unrestricted) ------------------------------
    let (can, can_live) = churned_can(256, 32, 0x0a01);
    let can_calls = can_family_calls(&can_live, 0x0a02);
    let (whole_can, whole_can_live) = churned_can(256, 0, 0x0a0e);
    let whole_can_calls = can_family_calls(&whole_can_live, 0x0a0f);

    let (ecan_base, ecan_live) = churned_can(256, 24, 0x0a03);
    let ecan = EcanOverlay::build(ecan_base, &mut SampledRandomSelector::new(0x0a04));
    let ecan_calls = can_family_calls(&ecan_live, 0x0a05);

    // Every (node, expressway target box) of the churned eCAN and of a
    // pristine one, asked of the sampling selector as a table build asks.
    let (pristine_base, pristine_live) = churned_can(256, 0, 0x0a0b);
    let pristine = EcanOverlay::build(pristine_base, &mut SampledRandomSelector::new(0x0a0c));
    let pristine_calls = can_family_calls(&pristine_live, 0x0a10);
    let box_picks = |ecan: &EcanOverlay| -> Vec<(OverlayNodeId, Zone)> {
        let ids = ecan.can().live_nodes();
        ids.flat_map(|id| {
            ecan.high_order_entries(id)
                .into_iter()
                .map(move |e| (id, e.target_box))
        })
        .collect()
    };
    let picks = [(&ecan, box_picks(&ecan)), (&pristine, box_picks(&pristine))];
    let mut sampler = SampledRandomSelector::new(0x0a0d);
    let sampled_picks = |sampler: &mut SampledRandomSelector| -> usize {
        picks
            .iter()
            .flat_map(|(ecan, boxes)| boxes.iter().map(move |(id, zone)| (ecan.can(), *id, zone)))
            .filter(|(can, id, zone)| {
                matches!(
                    sampler.select_in_box(*id, zone, can),
                    BoxSelection::Chosen(_)
                )
            })
            .count()
    };

    let mut tacan = CanOverlay::new(DIMS).expect("2-d CAN");
    let mut rng = StdRng::seed_from_u64(0x0a06);
    let mut tacan_ids = Vec::new();
    for i in 0..192u32 {
        let mut ordering: Vec<usize> = (0..4).collect();
        for j in (1..ordering.len()).rev() {
            ordering.swap(j, rng.gen_range(0..j + 1));
        }
        tacan_ids.push(tacan.join(NodeIdx(i), binned_join_point(&ordering, DIMS, &mut rng)));
    }
    let tacan_calls = can_family_calls(&tacan_ids, 0x0a07);
    let mut churned_tacan = tacan.clone();
    let mut victims = StdRng::seed_from_u64(0x0a12);
    for _ in 0..24 {
        let victim = tacan_ids.swap_remove(victims.gen_range(0..tacan_ids.len()));
        churned_tacan.leave(victim).expect("victim is live");
    }
    let churned_tacan_calls = can_family_calls(&tacan_ids, 0x0a11);

    let mut chord = ChordOverlay::new();
    let mut ring_members: Vec<RingId> = Vec::new();
    for i in 0..128u32 {
        let id: RingId = rng.gen();
        chord.join(NodeIdx(i), id);
        ring_members.push(id);
    }
    let chord_calls: Vec<(RingId, RingId)> = (0..CALLS)
        .map(|_| {
            (
                ring_members[rng.gen_range(0..ring_members.len())],
                rng.gen(),
            )
        })
        .collect();

    let mut pastry = PastryOverlay::new(8);
    let mut pastry_members: Vec<PastryId> = Vec::new();
    for i in 0..128u32 {
        let id: PastryId = rng.gen();
        pastry.join(NodeIdx(i), id);
        pastry_members.push(id);
    }
    let pastry_calls: Vec<(PastryId, PastryId)> = (0..CALLS)
        .map(|_| {
            (
                pastry_members[rng.gen_range(0..pastry_members.len())],
                rng.gen(),
            )
        })
        .collect();

    // The soft-state store of a built N = 256 system (24 of them departed
    // after publishing, so hosts own takeover zones and maps hold entries
    // of dead nodes), and every (node, expressway target box) it looks up.
    let grid = LandmarkGrid::new(3, 5, SimDuration::from_millis(320)).expect("valid grid");
    let mut state = GlobalState::new(SoftStateConfig::builder(grid).condense_rate(0.25).build());
    let (store_base, _) = churned_can(256, 0, 0x0a08);
    let mut store_ecan = EcanOverlay::build(store_base, &mut SampledRandomSelector::new(0x0a09));
    let mut infos: Vec<NodeInfo> = Vec::new();
    for id in store_ecan.can().live_nodes().collect::<Vec<_>>() {
        let millis: Vec<f64> = (0..15).map(|_| rng.gen_range(1.0..300.0)).collect();
        let vector = LandmarkVector::from_millis(&millis);
        let number = state
            .config()
            .grid()
            .landmark_number(&vector, state.config().curve());
        let info = NodeInfo {
            node: id,
            underlay: NodeIdx(id.0),
            vector,
            number,
            load: None,
        };
        state.publish(info.clone(), &store_ecan, SimTime::ORIGIN);
        infos.push(info);
    }
    for victim in (0..24).map(|i| OverlayNodeId(i * 10 + 3)) {
        store_ecan.depart(victim).expect("victim is live");
    }
    store_ecan.reselect(&mut SampledRandomSelector::new(0x0a0a));
    // Each node asks every box of its expressway table for 10 candidates,
    // then its own smallest region — whose landing host stores the node's
    // own entry, to be left out — for 1 (answered by the host alone, when
    // it holds another), for 64 (widening the remembered fragment to the
    // host's ring) and for 1 again.
    let lookups: Vec<(&NodeInfo, Zone, usize)> = infos
        .iter()
        .flat_map(|info| {
            let entries = store_ecan.high_order_entries(info.node);
            let own = store_ecan
                .enclosing_high_order_zones(info.node)
                .into_iter()
                .next();
            let own = own
                .into_iter()
                .flat_map(|zone| [1, 64, 1].map(|max| (zone.clone(), max)));
            let boxes = entries.into_iter().map(|e| (e.target_box, 10));
            boxes.chain(own).map(move |(zone, max)| (info, zone, max))
        })
        .collect();
    assert!(
        lookups.len() > 1_000,
        "a 232-node eCAN has expressway tables"
    );
    let mut lookup_scratch = LookupScratch::default();
    let hosted_lookups = |scratch: &mut LookupScratch| -> usize {
        lookups
            .iter()
            .map(|(query, zone, max)| {
                let found = state.lookup_in_hosted_into(
                    scratch,
                    zone,
                    query,
                    *max,
                    store_ecan.can(),
                    SimTime::ORIGIN,
                );
                found
                    .inspect(|candidate| assert_ne!(candidate.node, query.node))
                    .count()
            })
            .sum()
    };

    let mut scratch = RouteScratch::new();

    // --- warm-up: size the stamp array and both hop buffers ------------
    // Every measured call runs once so the scratch has seen the largest
    // arena bound and the longest hop sequence it will be asked to hold.
    type RouteInto<'a> =
        &'a dyn Fn(&mut RouteScratch, OverlayNodeId, &Point) -> Result<(), OverlayError>;
    type Arena<'a> = (&'a str, RouteInto<'a>, &'a [(OverlayNodeId, Point)]);
    let can_family: [Arena; 6] = [
        (
            "can, churned",
            &|scr, s, t| can.route_into(scr, s, t),
            &can_calls,
        ),
        (
            "can, join-only",
            &|scr, s, t| whole_can.route_into(scr, s, t),
            &whole_can_calls,
        ),
        (
            "ecan, churned",
            &|scr, s, t| ecan.route_express_into(scr, s, t),
            &ecan_calls,
        ),
        (
            "ecan, join-only",
            &|scr, s, t| pristine.route_express_into(scr, s, t),
            &pristine_calls,
        ),
        (
            "tacan, join-only",
            &|scr, s, t| tacan.route_into(scr, s, t),
            &tacan_calls,
        ),
        (
            "tacan, churned",
            &|scr, s, t| churned_tacan.route_into(scr, s, t),
            &churned_tacan_calls,
        ),
    ];
    let route_can_family = |scratch: &mut RouteScratch, arena: usize| {
        let (_, route_into, calls) = can_family[arena];
        for (s, t) in calls {
            route_into(scratch, *s, t).expect("routes between live nodes are delivered");
        }
    };
    for arena in 0..can_family.len() {
        route_can_family(&mut scratch, arena);
    }
    for (s, k) in &chord_calls {
        chord
            .route_into(&mut scratch, *s, *k)
            .expect("warm-up routes");
    }
    for (s, k) in &pastry_calls {
        pastry
            .route_into(&mut scratch, *s, *k)
            .expect("warm-up routes");
    }

    let boxes = picks[0].1.len() + picks[1].1.len();
    assert!(boxes > 2_000, "two ~250-node eCANs have expressway tables");
    assert!(
        sampled_picks(&mut sampler) * 10 > boxes * 9,
        "nearly every box yields a pick"
    );

    let candidates_found = hosted_lookups(&mut lookup_scratch);
    assert!(
        candidates_found > lookups.len(),
        "lookups return candidates"
    );
    let walked = lookup_scratch.fragment_walks();
    assert!(
        walked * 4 < lookups.len() as u64,
        "{walked} walks: queriers share hosts"
    );

    // --- measurement: the same calls must not touch the allocator ------
    let mut per_overlay: Vec<(&str, u64)> = (0..can_family.len())
        .map(|arena| {
            (
                can_family[arena].0,
                allocations(|| route_can_family(&mut scratch, arena)),
            )
        })
        .collect();
    per_overlay.extend([
        (
            "chord",
            allocations(|| {
                for (s, k) in &chord_calls {
                    chord
                        .route_into(&mut scratch, *s, *k)
                        .expect("warmed routes");
                }
            }),
        ),
        (
            "pastry",
            allocations(|| {
                for (s, k) in &pastry_calls {
                    pastry
                        .route_into(&mut scratch, *s, *k)
                        .expect("warmed routes");
                }
            }),
        ),
        (
            "sampled expressway pick",
            allocations(|| {
                assert!(sampled_picks(&mut sampler) * 10 > boxes * 9);
            }),
        ),
        (
            "softstate hosted lookup",
            allocations(|| {
                assert_eq!(hosted_lookups(&mut lookup_scratch), candidates_found);
            }),
        ),
    ]);
    assert_eq!(
        lookup_scratch.fragment_walks(),
        walked,
        "the warmed pass found every fragment"
    );

    for (overlay, count) in per_overlay {
        assert_eq!(
            count, 0,
            "{overlay}: a warmed-up pass hit the heap {count} time(s) — \
             the zero-allocation contract the alloc-reachability lint \
             pass ratchets is broken"
        );
    }
}
