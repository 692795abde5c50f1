//! Churn integration: overlay structure, soft-state, and routing stay
//! consistent through interleaved joins and departures.

use tao_core::{SelectionStrategy, TaoBuilder};
use tao_overlay::chord::ChordOverlay;
use tao_overlay::ecan::{EcanOverlay, RandomSelector};
use tao_overlay::keyed::KeyedOverlay;
use tao_overlay::pastry::PastryOverlay;
use tao_overlay::tacan::binned_join_point;
use tao_overlay::{CanOverlay, OverlayNodeId, Point, RouteScratch};
use tao_sim::SimDuration;
use tao_softstate::MaintenancePolicy;
use tao_topology::{LatencyAssignment, NodeIdx, TransitStubParams};
use tao_util::det::{DetMap, DetSet};
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

#[test]
fn can_survives_heavy_interleaved_churn() {
    let mut can = CanOverlay::new(2).expect("2-d CAN");
    let mut rng = StdRng::seed_from_u64(3);
    let mut live = Vec::new();
    for i in 0..100u32 {
        live.push(can.join(NodeIdx(i), Point::random(2, &mut rng)));
    }
    // 400 churn events: 50/50 join/leave, never dropping below 10 nodes.
    let mut next_underlay = 100u32;
    for step in 0..400 {
        if rng.gen_bool(0.5) && can.len() > 10 {
            let idx = rng.gen_range(0..live.len());
            let victim = live.swap_remove(idx);
            can.leave(victim).expect("victim is live");
        } else {
            live.push(can.join(NodeIdx(next_underlay), Point::random(2, &mut rng)));
            next_underlay += 1;
        }
        if step % 50 == 0 {
            can.check_invariants();
        }
    }
    can.check_invariants();
    // Routing still terminates at the owner from every live node.
    let mut scratch = RouteScratch::new();
    for _ in 0..100 {
        let src = live[rng.gen_range(0..live.len())];
        let target = Point::random(2, &mut rng);
        can.route_into(&mut scratch, src, &target)
            .expect("routing succeeds");
        assert_eq!(scratch.hops().last(), Some(&can.owner(&target)));
    }
}

#[test]
fn zone_coverage_is_preserved_through_churn() {
    let mut can = CanOverlay::new(2).expect("2-d CAN");
    let mut rng = StdRng::seed_from_u64(5);
    let mut live = Vec::new();
    for i in 0..64u32 {
        live.push(can.join(NodeIdx(i), Point::random(2, &mut rng)));
    }
    for _ in 0..30 {
        let victim = live.swap_remove(rng.gen_range(0..live.len()));
        can.leave(victim).expect("victim is live");
    }
    // All owned zones still tile the space exactly.
    let total: f64 = can
        .live_nodes()
        .map(|id| {
            can.zones(id)
                .expect("live node")
                .iter()
                .map(|z| z.volume())
                .sum::<f64>()
        })
        .sum();
    assert!((total - 1.0).abs() < 1e-9, "zones must tile, got {total}");
    // And every random point has exactly one owner that really owns it.
    for _ in 0..200 {
        let p = Point::random(2, &mut rng);
        let owner = can.owner(&p);
        assert!(can
            .zones(owner)
            .expect("owner is live")
            .iter()
            .any(|z| z.contains(&p)));
    }
}

#[test]
fn pastry_survives_heavy_interleaved_churn() {
    let mut pastry = PastryOverlay::new(8);
    let mut rng = StdRng::seed_from_u64(11);
    let mut live = Vec::new();
    for i in 0..64u32 {
        let id = rng.gen();
        pastry.join(NodeIdx(i), id);
        live.push(id);
    }
    pastry.reselect(&mut RandomSelector::new(12));
    pastry.check_invariants();
    // 200 churn events; tables are rebuilt every 25 (leaf sets and routing
    // slots must be exact again after each rebuild, never below 16 nodes).
    let mut next_underlay = 64u32;
    for step in 0..200 {
        if rng.gen_bool(0.5) && pastry.len() > 16 {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            pastry.leave(victim).expect("victim is live");
        } else {
            let id = rng.gen();
            pastry.join(NodeIdx(next_underlay), id);
            live.push(id);
            next_underlay += 1;
        }
        if step % 25 == 24 {
            pastry.reselect(&mut RandomSelector::new(13 + step as u64));
            pastry.check_invariants();
        }
    }
    pastry.reselect(&mut RandomSelector::new(99));
    pastry.check_invariants();
    // Routing from any live node lands on the key's numerical root.
    let mut scratch = RouteScratch::new();
    for _ in 0..100 {
        let start = live[rng.gen_range(0..live.len())];
        let key = rng.gen();
        pastry
            .route_into(&mut scratch, start, key)
            .expect("routing succeeds");
        assert_eq!(
            scratch.ring_hops().last(),
            Some(&pastry.root_of(key).expect("root exists"))
        );
    }
}

#[test]
fn chord_survives_heavy_interleaved_churn() {
    let mut ring = ChordOverlay::new();
    let mut rng = StdRng::seed_from_u64(21);
    let mut live = Vec::new();
    for i in 0..64u32 {
        let id = rng.gen();
        ring.join(NodeIdx(i), id);
        live.push(id);
    }
    ring.reselect(&mut RandomSelector::new(22));
    ring.check_invariants();
    let mut next_underlay = 64u32;
    for step in 0..200 {
        if rng.gen_bool(0.5) && ring.len() > 16 {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            ring.leave(victim).expect("victim is live");
        } else {
            let id = rng.gen();
            ring.join(NodeIdx(next_underlay), id);
            live.push(id);
            next_underlay += 1;
        }
        if step % 25 == 24 {
            ring.reselect(&mut RandomSelector::new(23 + step as u64));
            ring.check_invariants();
        }
    }
    ring.reselect(&mut RandomSelector::new(199));
    ring.check_invariants();
    // Greedy finger routing terminates at each key's successor.
    let mut scratch = RouteScratch::new();
    for _ in 0..100 {
        let start = live[rng.gen_range(0..live.len())];
        let key = rng.gen();
        ring.route_into(&mut scratch, start, key)
            .expect("routing succeeds");
        assert_eq!(
            scratch.ring_hops().last(),
            Some(&ring.successor(key).expect("successor exists"))
        );
    }
}

#[test]
fn tacan_survives_heavy_interleaved_churn() {
    // A TA-CAN is a plain CAN whose nodes join at landmark-binned points;
    // the skewed zones that layout produces are where tiling bugs would
    // surface first, so the overlay is checked after every op.
    const LANDMARKS: usize = 4;
    let mut tacan = CanOverlay::new(2).expect("2-d CAN");
    let mut rng = StdRng::seed_from_u64(31);
    // Landmark orderings cycle through rotations of the identity — a crude
    // stand-in for "nodes near different landmarks" that still exercises
    // every bin of the binned join.
    let ordering_for =
        |k: usize| -> Vec<usize> { (0..LANDMARKS).map(|i| (i + k) % LANDMARKS).collect() };
    let mut live = Vec::new();
    for i in 0..64u32 {
        live.push(tacan.join(
            NodeIdx(i),
            binned_join_point(&ordering_for(i as usize), 2, &mut rng),
        ));
    }
    tacan.check_invariants();
    let mut next_underlay = 64u32;
    for step in 0..200usize {
        if rng.gen_bool(0.5) && tacan.len() > 16 {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            tacan.leave(victim).expect("victim is live");
        } else {
            let point = binned_join_point(&ordering_for(step), 2, &mut rng);
            live.push(tacan.join(NodeIdx(next_underlay), point));
            next_underlay += 1;
        }
        tacan.check_invariants();
    }
    // The landmark-binned CAN still routes to the owner.
    let mut scratch = RouteScratch::new();
    for _ in 0..100 {
        let src = live[rng.gen_range(0..live.len())];
        let target = Point::random(2, &mut rng);
        tacan
            .route_into(&mut scratch, src, &target)
            .expect("routing succeeds");
        assert_eq!(scratch.hops().last(), Some(&tacan.owner(&target)));
    }
}

#[test]
fn ecan_survives_interleaved_churn_with_reselection() {
    let mut can = CanOverlay::new(2).expect("2-d CAN");
    let mut rng = StdRng::seed_from_u64(37);
    let mut live = Vec::new();
    for i in 0..64u32 {
        live.push(can.join(NodeIdx(i), Point::random(2, &mut rng)));
    }
    let mut ecan = EcanOverlay::build(can, &mut RandomSelector::new(38));
    ecan.check_invariants();
    let mut next_underlay = 64u32;
    for step in 0..200 {
        if rng.gen_bool(0.5) && ecan.can().len() > 16 {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            ecan.depart(victim).expect("victim is live");
        } else {
            live.push(ecan.join_unselected(NodeIdx(next_underlay), Point::random(2, &mut rng)));
            next_underlay += 1;
        }
        // Expressway tables go stale under churn by design; invariants hold
        // at every re-selection point.
        if step % 25 == 24 {
            ecan.reselect(&mut RandomSelector::new(39 + step as u64));
            ecan.check_invariants();
        }
    }
    ecan.reselect(&mut RandomSelector::new(999));
    ecan.check_invariants();
    // Express routing still terminates at the owner.
    for _ in 0..100 {
        let src = live[rng.gen_range(0..live.len())];
        let target = Point::random(2, &mut rng);
        let route = ecan.route_express(src, &target).expect("routing succeeds");
        assert_eq!(
            *route.hops.last().expect("non-empty"),
            ecan.can().owner(&target)
        );
    }
}

/// One step of a generated eCAN membership history.
#[derive(Debug, Clone)]
enum Handover {
    Join(f64, f64),
    Depart(u64),
    /// Depart a drawn node that holds taken-over zones: its taker inherits
    /// every one of them (a no-op while nobody holds any).
    DepartTaker(u64),
    /// Join at the centre of a drawn taken-over zone, splitting it under
    /// its holder (a no-op while nobody holds any).
    JoinTakenOver(u64),
}

#[test]
fn multi_zone_handover_keeps_tree_zones_and_tables_in_step() {
    use std::cell::Cell;
    use tao_overlay::ecan::SampledRandomSelector;
    use tao_util::check::for_all_sequences;

    let (takers_departed, taken_over_joins) = (Cell::new(0u32), Cell::new(0u32));
    let generate = |rng: &mut StdRng| -> Vec<Handover> {
        (0..48)
            .map(|_| match rng.gen_range(0..10) {
                0..=2 => Handover::Join(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)),
                3..=5 => Handover::Depart(rng.gen()),
                6..=7 => Handover::DepartTaker(rng.gen()),
                _ => Handover::JoinTakenOver(rng.gen()),
            })
            .collect()
    };
    let replay = |steps: &[Handover]| {
        let mut can = CanOverlay::new(2).expect("2-d CAN");
        let mut rng = StdRng::seed_from_u64(41);
        for i in 0..24u32 {
            can.join(NodeIdx(i), Point::random(2, &mut rng));
        }
        let mut selector = SampledRandomSelector::new(42);
        let mut ecan = EcanOverlay::build(can, &mut selector);
        let mut next_underlay = 24u32;
        for step in steps {
            let can = ecan.can();
            let live: Vec<OverlayNodeId> = can.live_nodes().collect();
            let pick = |from: &[OverlayNodeId], draw: u64| from[draw as usize % from.len()];
            let takers: Vec<OverlayNodeId> = live
                .iter()
                .copied()
                .filter(|&id| can.zones(id).expect("live node").len() > 1)
                .collect();
            let (join_at, victim) = match *step {
                Handover::Join(x, y) => (Some(Point::clamped(vec![x, y])), None),
                Handover::Depart(draw) => (None, Some(pick(&live, draw))),
                Handover::DepartTaker(draw) if !takers.is_empty() => {
                    takers_departed.set(takers_departed.get() + 1);
                    (None, Some(pick(&takers, draw)))
                }
                Handover::JoinTakenOver(draw) if !takers.is_empty() => {
                    let zones = can.zones(pick(&takers, draw)).expect("live node");
                    taken_over_joins.set(taken_over_joins.get() + 1);
                    (
                        Some(zones[1 + (draw >> 32) as usize % (zones.len() - 1)].center()),
                        None,
                    )
                }
                _ => (None, None),
            };
            if let Some(point) = join_at {
                ecan.join_and_select(NodeIdx(next_underlay), point, &mut selector);
                next_underlay += 1;
            }
            if let Some(victim) = victim.filter(|_| live.len() > 4) {
                ecan.depart_and_repair(victim, &mut selector)
                    .expect("victim is live");
            }
            // The eCAN's check runs the CAN's first: tree and zone lists
            // describe one tiling; tables and reverse index one set of
            // links. Then the descent itself, zone by zone.
            ecan.check_invariants();
            for id in ecan.can().live_nodes() {
                for zone in ecan.can().zones(id).expect("live node") {
                    assert_eq!(
                        ecan.can().owner(&zone.center()),
                        id,
                        "{zone} is held by {id}"
                    );
                }
            }
        }
    };
    for_all_sequences("multi_zone_handover", 32, generate, replay);
    assert!(
        takers_departed.get() > 20 && taken_over_joins.get() > 20,
        "histories must hand several zones on at once ({}) and join into taken-over zones ({})",
        takers_departed.get(),
        taken_over_joins.get()
    );
}

// ---------------------------------------------------------------------------
// Churn batches applied op by op: structural invariants must hold not just
// at the end of a batch but after every single op.
// ---------------------------------------------------------------------------

/// One membership change, on a churn label.
#[derive(Debug, Clone)]
enum BatchOp {
    Join(u64, Point),
    Depart(u64),
}

/// Three seeded batches over a bootstrap of labels `0..32`, as the changes
/// they make: a crowd of 48 fresh labels joining, labels `4..16` departing
/// and then rejoining elsewhere, and a wave of 24 fresh joins followed by
/// departures drawn from them (a label drawn twice departs once).
fn membership_changes(seed: u64) -> Vec<BatchOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops: Vec<BatchOp> = (1_000..1_048)
        .map(|l| BatchOp::Join(l, Point::random(2, &mut rng)))
        .collect();
    ops.extend((4..16).map(BatchOp::Depart));
    ops.extend((4..16).map(|l| BatchOp::Join(l, Point::random(2, &mut rng))));
    ops.extend((2_000..2_024).map(|l| BatchOp::Join(l, Point::random(2, &mut rng))));
    let mut departed = DetSet::new();
    for _ in 0..24 {
        let label = rng.gen_range(2_000..2_024);
        if departed.insert(label) {
            ops.push(BatchOp::Depart(label));
        }
    }
    ops
}

/// Labels `0..32` joined at seeded random points: the batches' bootstrap.
fn bootstrap_can(seed: u64) -> (CanOverlay, DetMap<u64, OverlayNodeId>) {
    let mut can = CanOverlay::new(2).expect("2-d CAN");
    let mut rng = StdRng::seed_from_u64(seed);
    let ids = (0..32)
        .map(|l| (l, can.join(NodeIdx(l as u32), Point::random(2, &mut rng))))
        .collect();
    (can, ids)
}

#[test]
fn can_invariants_hold_after_every_batch_op() {
    let (mut can, mut ids) = bootstrap_can(0xbc_01);
    for op in membership_changes(0xbc_01) {
        match op {
            BatchOp::Join(label, point) => {
                ids.insert(label, can.join(NodeIdx(label as u32), point));
            }
            BatchOp::Depart(label) => can
                .leave(ids.remove(&label).expect("live label"))
                .expect("victim is live"),
        }
        can.check_invariants();
    }
    assert!(ids.len() > 16, "scenarios must leave a live overlay");
}

#[test]
fn tacan_invariants_hold_after_every_batch_op() {
    // The batches' labels, joined instead at the landmark-binned point of
    // an ordering rotated by the label: skewed zones under churn.
    const LANDMARKS: usize = 4;
    let seed = 0xbc_02;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut binned = |label: u64| {
        let ordering: Vec<usize> = (0..LANDMARKS)
            .map(|i| (i + label as usize) % LANDMARKS)
            .collect();
        binned_join_point(&ordering, 2, &mut rng)
    };
    let mut tacan = CanOverlay::new(2).expect("2-d CAN");
    let mut ids: DetMap<u64, OverlayNodeId> = (0..32)
        .map(|l| (l, tacan.join(NodeIdx(l as u32), binned(l))))
        .collect();
    for op in membership_changes(seed) {
        match op {
            BatchOp::Join(label, _) => {
                ids.insert(label, tacan.join(NodeIdx(label as u32), binned(label)));
            }
            BatchOp::Depart(label) => tacan
                .leave(ids.remove(&label).expect("live label"))
                .expect("victim is live"),
        }
        tacan.check_invariants();
    }
    assert!(ids.len() > 16);
}

#[test]
fn ecan_invariants_hold_after_every_batch_op() {
    let seed = 0xbc_03;
    let (can, mut ids) = bootstrap_can(seed);
    let mut ecan = EcanOverlay::build(can, &mut RandomSelector::new(seed));
    for (i, op) in membership_changes(seed).into_iter().enumerate() {
        match op {
            BatchOp::Join(label, point) => {
                ids.insert(label, ecan.join_unselected(NodeIdx(label as u32), point));
            }
            BatchOp::Depart(label) => ecan
                .depart(ids.remove(&label).expect("live label"))
                .expect("victim is live"),
        }
        // Joins split zones out from under other nodes' expressway
        // representatives, so per-op soundness needs a full reselection
        // (`multi_zone_handover…` covers the incremental repair path).
        ecan.reselect(&mut RandomSelector::new(seed ^ i as u64));
        ecan.check_invariants();
    }
    assert!(ids.len() > 16);
}

#[test]
fn pastry_and_chord_invariants_hold_after_every_batch_op() {
    // Tables are rebuilt per op so structural invariants are checkable
    // after every one. A label's key is a function of the label, so a
    // rejoin reuses it and no two live labels share one.
    let seed = 0xbc_04;
    let key = |label: u64| -> u64 { StdRng::seed_from_u64(seed ^ label).gen() };
    let mut pastry = PastryOverlay::new(8);
    let mut ring = ChordOverlay::new();
    for label in 0..32u64 {
        pastry.join(NodeIdx(label as u32), key(label));
        ring.join(NodeIdx(label as u32), key(label));
    }
    let mut live = 32;
    for (i, op) in membership_changes(seed).into_iter().enumerate() {
        match op {
            BatchOp::Join(label, _) => {
                pastry.join(NodeIdx(label as u32), key(label));
                ring.join(NodeIdx(label as u32), key(label));
                live += 1;
            }
            BatchOp::Depart(label) => {
                pastry.leave(key(label)).expect("victim is live");
                ring.leave(key(label)).expect("victim is live");
                live -= 1;
            }
        }
        pastry.reselect(&mut RandomSelector::new(seed ^ i as u64));
        ring.reselect(&mut RandomSelector::new(seed ^ i as u64));
        pastry.check_invariants();
        ring.check_invariants();
    }
    assert!(live > 16);
}

#[test]
fn full_system_recovers_after_churn_with_maintenance() {
    let mut b = TaoBuilder::new();
    b.topology(TransitStubParams::tsk_small_mini())
        .latency(LatencyAssignment::manual())
        .overlay_nodes(192)
        .landmarks(8)
        .selection(SelectionStrategy::GlobalState)
        .seed(8);
    let mut tao = b.build();
    let before = tao.measure_routing_stretch(384, 2).mean();

    let ttl = tao.state().config().ttl();
    for v in tao.sample_overlay_nodes(40, 4) {
        let now = tao.now();
        MaintenancePolicy::ProactiveDeparture.apply_departure(tao.state_mut(), v, now, ttl);
        tao.depart(v).expect("victim is live");
        tao.advance(SimDuration::from_secs(5));
    }
    tao.reselect();
    let after = tao.measure_routing_stretch(384, 2);
    assert!(after.count() > 300, "routing must still mostly succeed");
    // Churn hurts, but the system must stay in the same order of magnitude.
    assert!(
        after.mean() < before * 6.0,
        "stretch exploded after churn: {before:.2} -> {:.2}",
        after.mean()
    );
    // Departed nodes left no soft-state behind (proactive policy).
    let live: tao_util::det::DetSet<_> = tao.ecan().can().live_nodes().collect();
    for map in tao.state().maps() {
        for e in map.entries() {
            assert!(
                live.contains(&e.info.node),
                "stale entry for departed {}",
                e.info.node
            );
        }
    }
}

#[test]
fn reactive_policy_leaves_stale_entries_until_ttl() {
    let mut b = TaoBuilder::new();
    b.topology(TransitStubParams::tsk_small_mini())
        .latency(LatencyAssignment::manual())
        .overlay_nodes(128)
        .landmarks(6)
        .seed(9);
    let mut tao = b.build();
    let ttl = tao.state().config().ttl();
    let victims = tao.sample_overlay_nodes(10, 6);
    for &v in &victims {
        let now = tao.now();
        MaintenancePolicy::Reactive.apply_departure(tao.state_mut(), v, now, ttl);
        tao.depart(v).expect("victim is live");
    }
    // Entries linger...
    let stale_now = victims
        .iter()
        .filter(|&&v| {
            tao.state()
                .maps()
                .any(|m| m.entries().any(|e| e.info.node == v))
        })
        .count();
    assert_eq!(stale_now, victims.len(), "reactive leaves all entries");
    // ...until the TTL sweep.
    tao.advance(ttl + SimDuration::from_secs(1));
    let now = tao.now();
    tao.state_mut().expire(now);
    for v in victims {
        assert!(
            !tao.state()
                .maps()
                .any(|m| m.entries().any(|e| e.info.node == v)),
            "{v} must be gone after TTL"
        );
    }
}
