//! Routing property tests over CAN, eCAN, Chord, Pastry and the TA-CAN
//! layout (a CAN joined at landmark-binned points).
//!
//! The `*_matches_the_allocating_oracle` tests pin "ONE scratch reused
//! across thousands of mixed calls ≡ a fresh `RouteScratch` per call"
//! (for eCAN the fresh-scratch call is `route_express()`) — including
//! error cases, which must leave the scratch reusable.
//!
//! Where the scratch loop is a different algorithm from the router it
//! replaced (CAN and eCAN: generation-stamp visited set, two-pass hop
//! kernel, primary-zone-only kernel on join-only arenas), that router is
//! kept here as [`reference_route`] / [`reference_route_express`], written
//! over public accessors only, and the `*_matches_the_reference_router`
//! tests hold the production loop to it hop for hop and error for error.
//! Chord and Pastry have no reference: their scratch loop is the original
//! loop with the hop buffer moved.

use tao_util::det::DetSet;

use tao_overlay::chord::{ChordOverlay, RingId};
use tao_overlay::ecan::{EcanOverlay, RandomSelector};
use tao_overlay::keyed::KeyedOverlay;
use tao_overlay::pastry::{PastryId, PastryOverlay};
use tao_overlay::tacan::binned_join_point;
use tao_overlay::{CanOverlay, OverlayError, OverlayNodeId, Point, RouteScratch};
use tao_topology::NodeIdx;
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

const DIMS: usize = 2;

/// Grows a CAN and departs a slice of its members, returning the overlay,
/// the surviving ids, and the departed ids (dead sources for error cases).
fn churned_can(
    nodes: u32,
    leaves: usize,
    seed: u64,
) -> (CanOverlay, Vec<OverlayNodeId>, Vec<OverlayNodeId>) {
    let mut can = CanOverlay::new(DIMS).expect("2-d CAN");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids = Vec::new();
    for i in 0..nodes {
        ids.push(can.join(NodeIdx(i), Point::random(DIMS, &mut rng)));
    }
    let mut dead = Vec::new();
    for _ in 0..leaves {
        let victim = ids.swap_remove(rng.gen_range(0..ids.len()));
        can.leave(victim).expect("victim is live");
        dead.push(victim);
    }
    (can, ids, dead)
}

/// One mixed call against the CAN-family oracles: mostly valid routes,
/// sprinkled with dead sources and wrong-dimensional targets.
enum Call {
    Valid(OverlayNodeId, Point),
    DeadSource(OverlayNodeId, Point),
    WrongDims(OverlayNodeId, Point),
}

fn mixed_calls(
    live: &[OverlayNodeId],
    dead: &[OverlayNodeId],
    count: usize,
    seed: u64,
) -> Vec<Call> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let roll: f64 = rng.gen();
            if roll < 0.02 && !dead.is_empty() {
                Call::DeadSource(
                    dead[rng.gen_range(0..dead.len())],
                    Point::random(DIMS, &mut rng),
                )
            } else if roll < 0.04 {
                Call::WrongDims(
                    live[rng.gen_range(0..live.len())],
                    Point::random(DIMS + 1, &mut rng),
                )
            } else {
                Call::Valid(
                    live[rng.gen_range(0..live.len())],
                    Point::random(DIMS, &mut rng),
                )
            }
        })
        .collect()
}

/// Runs `calls` through an oracle/fast-path pair, asserting identical hop
/// sequences on success and identical errors on failure, with `scratch`
/// reused for every call.
fn assert_can_family_equivalence(
    label: &str,
    calls: &[Call],
    scratch: &mut RouteScratch,
    oracle: impl Fn(OverlayNodeId, &Point) -> Result<Vec<OverlayNodeId>, OverlayError>,
    fast: impl Fn(&mut RouteScratch, OverlayNodeId, &Point) -> Result<(), OverlayError>,
) {
    for (i, call) in calls.iter().enumerate() {
        let (src, target) = match call {
            Call::Valid(s, t) | Call::DeadSource(s, t) | Call::WrongDims(s, t) => (*s, t),
        };
        let expect = oracle(src, target);
        let got = fast(scratch, src, target);
        match (expect, got) {
            (Ok(hops), Ok(())) => {
                assert_eq!(
                    hops,
                    scratch.hops(),
                    "{label}: hop sequence diverged on call {i}",
                );
            }
            (Err(e), Err(g)) => assert_eq!(e, g, "{label}: errors diverged on call {i}"),
            (expect, got) => {
                panic!("{label}: outcome diverged on call {i}: oracle {expect:?}, fast {got:?}")
            }
        }
    }
}

/// The hops of one CAN-family call on a fresh `RouteScratch`: the oracle a
/// scratch reused across every call is held to.
fn fresh_hops(
    route: impl FnOnce(&mut RouteScratch) -> Result<(), OverlayError>,
) -> Result<Vec<OverlayNodeId>, OverlayError> {
    let mut fresh = RouteScratch::new();
    route(&mut fresh).map(|()| fresh.hops().to_vec())
}

/// [`fresh_hops`] for the ring overlays.
fn fresh_ring_hops<E>(
    route: impl FnOnce(&mut RouteScratch) -> Result<(), E>,
) -> Result<Vec<u64>, E> {
    let mut fresh = RouteScratch::new();
    route(&mut fresh).map(|()| fresh.ring_hops().to_vec())
}

/// The CAN router the scratch loop replaced: `DetSet` visited set, next hop
/// by `min_by` on `(distance, id)`, neighbor list cloned per hop, every
/// distance over all of a node's zones.
fn reference_route(
    can: &CanOverlay,
    source: OverlayNodeId,
    target: &Point,
) -> Result<Vec<OverlayNodeId>, OverlayError> {
    if target.dims() != can.dims() {
        return Err(OverlayError::DimensionMismatch {
            expected: can.dims(),
            got: target.dims(),
        });
    }
    if !can.is_live(source) {
        return Err(OverlayError::UnknownNode(source));
    }
    let mut hops = vec![source];
    let mut current = source;
    let mut visited: DetSet<OverlayNodeId> = DetSet::new();
    visited.insert(source);
    let limit = 4 * can.len() + 16;
    while !can.owns_point(current, target)? {
        if hops.len() > limit {
            return Err(OverlayError::RoutingStuck { at: current });
        }
        let next = can
            .neighbors(current)?
            .into_iter()
            .filter(|n| !visited.contains(n))
            .min_by(|a, b| {
                let da = can
                    .distance_to_point(*a, target)
                    .expect("neighbors are live");
                let db = can
                    .distance_to_point(*b, target)
                    .expect("neighbors are live");
                da.total_cmp(&db).then(a.cmp(b))
            })
            .ok_or(OverlayError::RoutingStuck { at: current })?;
        visited.insert(next);
        hops.push(next);
        current = next;
    }
    Ok(hops)
}

/// The eCAN router the scratch loop replaced: as [`reference_route`] over
/// default neighbors chained with the live expressway representatives;
/// when every candidate was already tried, the rest of the route is a
/// plain-CAN [`reference_route`] from the stuck node — on a visited set and
/// a hop limit of its own — spliced after the express prefix.
fn reference_route_express(
    ecan: &EcanOverlay,
    source: OverlayNodeId,
    target: &Point,
) -> Result<Vec<OverlayNodeId>, OverlayError> {
    let can = ecan.can();
    if target.dims() != can.dims() {
        return Err(OverlayError::DimensionMismatch {
            expected: can.dims(),
            got: target.dims(),
        });
    }
    if !can.is_live(source) {
        return Err(OverlayError::UnknownNode(source));
    }
    let mut hops = vec![source];
    let mut current = source;
    let mut visited: DetSet<OverlayNodeId> = DetSet::new();
    visited.insert(source);
    let limit = 4 * can.len() + 16;
    while !can.owns_point(current, target)? {
        if hops.len() > limit {
            return Err(OverlayError::RoutingStuck { at: current });
        }
        let express = ecan
            .high_order_entries(current)
            .into_iter()
            .map(|e| e.representative);
        let next = can
            .neighbors(current)?
            .into_iter()
            .chain(express)
            .filter(|n| !visited.contains(n) && can.is_live(*n))
            .min_by(|a, b| {
                let da = can
                    .distance_to_point(*a, target)
                    .expect("filtered to live nodes");
                let db = can
                    .distance_to_point(*b, target)
                    .expect("filtered to live nodes");
                da.total_cmp(&db).then(a.cmp(b))
            });
        let Some(next) = next else {
            let tail = reference_route(can, current, target)?;
            hops.extend(tail.into_iter().skip(1));
            return Ok(hops);
        };
        visited.insert(next);
        hops.push(next);
        current = next;
    }
    Ok(hops)
}

#[test]
fn can_router_matches_the_reference_router() {
    // A join-only arena (primary-zone-only kernel) and a churned one
    // (takeover zones in play).
    for leaves in [0, 128] {
        let (can, live, dead) = churned_can(512, leaves, 0x0901);
        let calls = mixed_calls(&live, &dead, 2_500, 0x0902);
        let mut scratch = RouteScratch::new();
        assert_can_family_equivalence(
            "can vs reference",
            &calls,
            &mut scratch,
            |s, t| reference_route(&can, s, t),
            |scr, s, t| can.route_into(scr, s, t),
        );
    }
}

#[test]
fn ecan_router_matches_the_reference_router() {
    // Join-only; churned before the tables are built; and departures after
    // the build, which leave entries naming departed representatives for
    // the liveness filter to skip.
    for (leaves_before, leaves_after) in [(0, 0), (96, 0), (0, 96)] {
        let (can, mut live, mut dead) = churned_can(512, leaves_before, 0x0903);
        let mut ecan = EcanOverlay::build(can, &mut RandomSelector::new(0x0904));
        let mut rng = StdRng::seed_from_u64(0x090f);
        for _ in 0..leaves_after {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            ecan.depart(victim).expect("victim is live");
            dead.push(victim);
        }
        let calls = mixed_calls(&live, &dead, 2_500, 0x0905);
        let mut scratch = RouteScratch::new();
        assert_can_family_equivalence(
            "ecan vs reference",
            &calls,
            &mut scratch,
            |s, t| reference_route_express(&ecan, s, t),
            |scr, s, t| ecan.route_express_into(scr, s, t),
        );
    }
}

#[test]
fn can_route_into_matches_the_allocating_oracle() {
    let (can, live, dead) = churned_can(512, 128, 0x0901);
    let calls = mixed_calls(&live, &dead, 2_500, 0x0902);
    let mut scratch = RouteScratch::new();
    assert_can_family_equivalence(
        "can",
        &calls,
        &mut scratch,
        |s, t| fresh_hops(|fresh| can.route_into(fresh, s, t)),
        |scr, s, t| can.route_into(scr, s, t),
    );
}

#[test]
fn ecan_route_express_into_matches_the_allocating_oracle() {
    let (can, live, dead) = churned_can(512, 96, 0x0903);
    let ecan = EcanOverlay::build(can, &mut RandomSelector::new(0x0904));
    let calls = mixed_calls(&live, &dead, 2_500, 0x0905);
    let mut scratch = RouteScratch::new();
    assert_can_family_equivalence(
        "ecan",
        &calls,
        &mut scratch,
        |s, t| ecan.route_express(s, t).map(|r| r.hops),
        |scr, s, t| ecan.route_express_into(scr, s, t),
    );
}

#[test]
fn tacan_route_into_matches_the_allocating_oracle() {
    let mut tacan = CanOverlay::new(DIMS).expect("2-d CAN");
    let mut rng = StdRng::seed_from_u64(0x0906);
    let mut ids = Vec::new();
    for i in 0..384u32 {
        // Random landmark ordering: a Fisher–Yates shuffle of 0..4.
        let mut ordering: Vec<usize> = (0..4).collect();
        for j in (1..ordering.len()).rev() {
            ordering.swap(j, rng.gen_range(0..j + 1));
        }
        ids.push(tacan.join(NodeIdx(i), binned_join_point(&ordering, DIMS, &mut rng)));
    }
    let mut dead = Vec::new();
    for _ in 0..64 {
        let victim = ids.swap_remove(rng.gen_range(0..ids.len()));
        tacan.leave(victim).expect("victim is live");
        dead.push(victim);
    }
    let calls = mixed_calls(&ids, &dead, 2_000, 0x0907);
    let mut scratch = RouteScratch::new();
    assert_can_family_equivalence(
        "tacan",
        &calls,
        &mut scratch,
        |s, t| fresh_hops(|fresh| tacan.route_into(fresh, s, t)),
        |scr, s, t| tacan.route_into(scr, s, t),
    );
}

#[test]
fn chord_route_into_matches_the_allocating_oracle() {
    let mut chord = ChordOverlay::new();
    let mut rng = StdRng::seed_from_u64(0x0908);
    let mut members: Vec<RingId> = Vec::new();
    for i in 0..256u32 {
        let id: RingId = rng.gen();
        chord.join(NodeIdx(i), id);
        members.push(id);
    }
    let mut scratch = RouteScratch::new();
    for i in 0..2_500 {
        let start = members[rng.gen_range(0..members.len())];
        // Mostly random keys, sometimes a member id (exact hit), sometimes
        // an unknown start (error case).
        let key: RingId = if i % 7 == 0 {
            members[rng.gen_range(0..members.len())]
        } else {
            rng.gen()
        };
        if i % 97 == 0 {
            let ghost = start.wrapping_add(1);
            if !members.contains(&ghost) {
                assert!(fresh_ring_hops(|fresh| chord.route_into(fresh, ghost, key)).is_err());
                assert!(chord.route_into(&mut scratch, ghost, key).is_err());
                continue;
            }
        }
        let hops =
            fresh_ring_hops(|fresh| chord.route_into(fresh, start, key)).expect("members route");
        chord
            .route_into(&mut scratch, start, key)
            .expect("members route");
        assert_eq!(hops, scratch.ring_hops(), "chord hops diverged on call {i}");
    }
}

#[test]
fn pastry_route_into_matches_the_allocating_oracle() {
    let mut pastry = PastryOverlay::new(8);
    let mut rng = StdRng::seed_from_u64(0x0909);
    let mut members: Vec<PastryId> = Vec::new();
    for i in 0..256u32 {
        let id: PastryId = rng.gen();
        pastry.join(NodeIdx(i), id);
        members.push(id);
    }
    let mut scratch = RouteScratch::new();
    for i in 0..2_500 {
        let start = members[rng.gen_range(0..members.len())];
        let key: PastryId = if i % 7 == 0 {
            members[rng.gen_range(0..members.len())]
        } else {
            rng.gen()
        };
        if i % 97 == 0 {
            let ghost = start.wrapping_add(1);
            if !members.contains(&ghost) {
                assert!(fresh_ring_hops(|fresh| pastry.route_into(fresh, ghost, key)).is_err());
                assert!(pastry.route_into(&mut scratch, ghost, key).is_err());
                continue;
            }
        }
        let hops =
            fresh_ring_hops(|fresh| pastry.route_into(fresh, start, key)).expect("members route");
        pastry
            .route_into(&mut scratch, start, key)
            .expect("members route");
        assert_eq!(
            hops,
            scratch.ring_hops(),
            "pastry hops diverged on call {i}"
        );
    }
}

#[test]
fn one_scratch_survives_interleaving_all_five_overlays() {
    // The same scratch serves CAN-family (generation array + hop buffer)
    // and ring-family (ring hop buffer) routes back to back; errors in
    // between must not poison later calls.
    let (can, live, dead) = churned_can(256, 32, 0x090a);
    let ecan = EcanOverlay::build(can.clone(), &mut RandomSelector::new(0x090b));
    let mut chord = ChordOverlay::new();
    let mut rng = StdRng::seed_from_u64(0x090c);
    let mut ring_members: Vec<RingId> = Vec::new();
    for i in 0..128u32 {
        let id: RingId = rng.gen();
        chord.join(NodeIdx(i), id);
        ring_members.push(id);
    }

    let mut scratch = RouteScratch::new();
    for i in 0..1_000 {
        let src = live[rng.gen_range(0..live.len())];
        let target = Point::random(DIMS, &mut rng);

        // A deliberate error first on every 10th iteration.
        if i % 10 == 0 {
            let bad = Point::random(DIMS + 1, &mut rng);
            assert_eq!(
                can.route_into(&mut scratch, src, &bad),
                Err(OverlayError::DimensionMismatch {
                    expected: DIMS,
                    got: DIMS + 1
                }),
            );
            if !dead.is_empty() {
                let ghost = dead[rng.gen_range(0..dead.len())];
                assert_eq!(
                    ecan.route_express_into(&mut scratch, ghost, &target),
                    Err(OverlayError::UnknownNode(ghost)),
                );
            }
        }

        let hops = fresh_hops(|fresh| can.route_into(fresh, src, &target)).expect("live source");
        can.route_into(&mut scratch, src, &target)
            .expect("live source");
        assert_eq!(hops, scratch.hops());

        let start = ring_members[rng.gen_range(0..ring_members.len())];
        let key: RingId = rng.gen();
        let ring = fresh_ring_hops(|fresh| chord.route_into(fresh, start, key)).expect("member");
        chord.route_into(&mut scratch, start, key).expect("member");
        assert_eq!(ring, scratch.ring_hops());

        let ehops = ecan.route_express(src, &target).expect("live source").hops;
        ecan.route_express_into(&mut scratch, src, &target)
            .expect("live source");
        assert_eq!(ehops, scratch.hops());
    }
}

#[test]
fn routing_terminates_under_heavy_churn_with_the_live_count_bound() {
    // Regression for the hop limit: it is now `4 * live_count + 16`, not
    // a multiple of the (never-shrinking) arena size. After departing
    // ~94% of members, the tighter bound must still admit every valid
    // greedy route — takeovers can leave zones fragmented, so routes on
    // the survivors are the stress case for an under-sized limit.
    let (can, live, _) = churned_can(2_048, 1_920, 0x090d);
    assert_eq!(can.len(), 128);
    let mut rng = StdRng::seed_from_u64(0x090e);
    let mut scratch = RouteScratch::new();
    for _ in 0..2_000 {
        let src = live[rng.gen_range(0..live.len())];
        let target = Point::random(DIMS, &mut rng);
        let hops = fresh_hops(|fresh| can.route_into(fresh, src, &target))
            .expect("consistent overlay routes");
        can.route_into(&mut scratch, src, &target)
            .expect("consistent overlay routes");
        assert_eq!(hops, scratch.hops());
        assert!(
            scratch.hop_count() <= 4 * can.len() + 16,
            "hop count {} exceeds the live-count bound",
            scratch.hop_count(),
        );
    }
}
