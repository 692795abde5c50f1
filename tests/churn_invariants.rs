//! Churn integration: overlay structure, soft-state, and routing stay
//! consistent through interleaved joins and departures.

use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};
use tao_core::{SelectionStrategy, TaoBuilder};
use tao_overlay::chord::ChordOverlay;
use tao_overlay::ecan::{EcanOverlay, RandomSelector};
use tao_overlay::keyed::{KeyedOverlay, RandomPeerSelector};
use tao_overlay::pastry::PastryOverlay;
use tao_overlay::{CanOverlay, Point, TaCanOverlay};
use tao_sim::SimDuration;
use tao_softstate::MaintenancePolicy;
use tao_topology::{LatencyAssignment, NodeIdx, TransitStubParams};

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
    for _ in 0..100 {
        let src = live[rng.gen_range(0..live.len())];
        let target = Point::random(2, &mut rng);
        let route = can.route(src, &target).expect("routing succeeds");
        assert_eq!(*route.hops.last().expect("non-empty"), can.owner(&target));
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
    pastry.reselect(&mut RandomPeerSelector::new(12));
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
            pastry.reselect(&mut RandomPeerSelector::new(13 + step as u64));
            pastry.check_invariants();
        }
    }
    pastry.reselect(&mut RandomPeerSelector::new(99));
    pastry.check_invariants();
    // Routing from any live node lands on the key's numerical root.
    for _ in 0..100 {
        let start = live[rng.gen_range(0..live.len())];
        let key = rng.gen();
        let route = pastry.route(start, key).expect("routing succeeds");
        assert_eq!(
            *route.hops.last().expect("non-empty"),
            pastry.root_of(key).expect("root exists")
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
    ring.reselect(&mut RandomPeerSelector::new(22));
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
            ring.reselect(&mut RandomPeerSelector::new(23 + step as u64));
            ring.check_invariants();
        }
    }
    ring.reselect(&mut RandomPeerSelector::new(199));
    ring.check_invariants();
    // Greedy finger routing terminates at each key's successor.
    for _ in 0..100 {
        let start = live[rng.gen_range(0..live.len())];
        let key = rng.gen();
        let route = ring.route(start, key).expect("routing succeeds");
        assert_eq!(
            *route.hops.last().expect("non-empty"),
            ring.successor(key).expect("successor exists")
        );
    }
}

#[test]
fn tacan_survives_heavy_interleaved_churn() {
    const LANDMARKS: usize = 4;
    let mut tacan = TaCanOverlay::new(2, LANDMARKS).expect("valid config");
    let mut rng = StdRng::seed_from_u64(31);
    // Landmark orderings cycle through rotations of the identity — a crude
    // stand-in for "nodes near different landmarks" that still exercises
    // every bin of the binned join.
    let ordering_for = |k: usize| -> Vec<usize> {
        (0..LANDMARKS).map(|i| (i + k) % LANDMARKS).collect()
    };
    let mut live = Vec::new();
    for i in 0..64u32 {
        live.push(tacan.join(NodeIdx(i), &ordering_for(i as usize), &mut rng));
    }
    tacan.check_invariants();
    let mut next_underlay = 64u32;
    for step in 0..200usize {
        if rng.gen_bool(0.5) && tacan.len() > 16 {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            tacan.leave(victim).expect("victim is live");
        } else {
            live.push(tacan.join(NodeIdx(next_underlay), &ordering_for(step), &mut rng));
            next_underlay += 1;
        }
        if step % 25 == 24 {
            tacan.check_invariants();
        }
    }
    tacan.check_invariants();
    // The landmark-binned CAN still routes to the owner underneath.
    for _ in 0..100 {
        let src = live[rng.gen_range(0..live.len())];
        let target = Point::random(2, &mut rng);
        let route = tacan.route(src, &target).expect("routing succeeds");
        assert_eq!(*route.hops.last().expect("non-empty"), tacan.can().owner(&target));
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
    use tao_overlay::OverlayNodeId;
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
                    (Some(zones[1 + (draw >> 32) as usize % (zones.len() - 1)].center()), None)
                }
                _ => (None, None),
            };
            if let Some(point) = join_at {
                ecan.join_and_select(NodeIdx(next_underlay), point, &mut selector);
                next_underlay += 1;
            }
            if let Some(victim) = victim.filter(|_| live.len() > 4) {
                ecan.depart_and_repair(victim, &mut selector).expect("victim is live");
            }
            // The eCAN's check runs the CAN's first: tree, zone lists and
            // Morton index describe one tiling; tables and reverse index
            // one set of links. Then the descent itself, zone by zone.
            ecan.check_invariants();
            for id in ecan.can().live_nodes() {
                for zone in ecan.can().zones(id).expect("live node") {
                    assert_eq!(ecan.can().owner(&zone.center()), id, "{zone} is held by {id}");
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
// Batch churn scenarios applied in batch order: structural invariants must
// hold not just at the end of a batch but after every single op.
// ---------------------------------------------------------------------------

/// The three `FaultPlan` batch scenario generators, concatenated: a flash
/// crowd of joins, a stub-domain mass crash with recovery, and a diurnal
/// churn wave.
fn scenario_batches(seed: u64, dims: usize) -> Vec<Vec<tao_sim::ChurnOp>> {
    use tao_sim::{FaultPlan, NodeId, SimTime};
    let mut plan = FaultPlan::new(seed);
    let flash = plan.flash_crowd(
        dims,
        48,
        1_000,
        SimTime::ORIGIN,
        SimDuration::from_secs(10),
    );
    let domain: Vec<NodeId> = (4..16).map(NodeId).collect();
    let crash = plan.stub_domain_crash(
        dims,
        &domain,
        SimTime::from_micros(1_000),
        SimTime::from_micros(60_000),
    );
    let wave = plan.diurnal_wave(dims, 48, 2_000, SimDuration::from_secs(43_200));
    vec![flash, crash, wave]
}

#[test]
fn can_invariants_hold_after_every_batch_op() {
    use tao_core::churn::ChurnState;
    let mut state = ChurnState::new(2, 0xbc_01, 32);
    for ops in scenario_batches(0xbc_01, 2) {
        for (i, op) in ops.iter().enumerate() {
            state.apply(i, op);
            state.can().check_invariants();
        }
    }
    assert!(state.live_len() > 16, "scenarios must leave a live overlay");
}

#[test]
fn tacan_invariants_hold_after_every_batch_op() {
    use tao_sim::{op_seed, ChurnOpKind};
    use tao_util::det::DetMap;
    const LANDMARKS: usize = 4;
    let seed = 0xbc_02;
    let mut tacan = TaCanOverlay::new(2, LANDMARKS).expect("valid config");
    let mut live = DetMap::new();
    let mut next_underlay = 0u32;
    let mut boot = StdRng::seed_from_u64(seed);
    for label in 0..32u64 {
        let ordering: Vec<usize> =
            (0..LANDMARKS).map(|i| (i + label as usize) % LANDMARKS).collect();
        let id = tacan.join(NodeIdx(next_underlay), &ordering, &mut boot);
        next_underlay += 1;
        live.insert(label, id);
    }
    for ops in scenario_batches(seed, 2) {
        for (i, op) in ops.iter().enumerate() {
            // TA-CAN joins draw their landing point from the per-op RNG.
            let mut rng = StdRng::seed_from_u64(op_seed(seed, i as u64));
            match op.kind {
                ChurnOpKind::Join | ChurnOpKind::Recover => {
                    if live.get(&op.node).is_none() {
                        let ordering: Vec<usize> =
                            (0..LANDMARKS).map(|k| (k + i) % LANDMARKS).collect();
                        let id = tacan.join(NodeIdx(next_underlay), &ordering, &mut rng);
                        next_underlay += 1;
                        live.insert(op.node, id);
                    }
                }
                ChurnOpKind::Depart | ChurnOpKind::Crash => {
                    if let Some(id) = live.remove(&op.node) {
                        tacan.leave(id).expect("victim is live");
                    }
                }
            }
            tacan.check_invariants();
        }
    }
    assert!(live.len() > 16);
}

#[test]
fn ecan_invariants_hold_after_every_batch_op() {
    use tao_sim::{op_seed, ChurnOpKind};
    use tao_util::det::DetMap;
    let seed = 0xbc_03;
    let mut can = CanOverlay::new(2).expect("2-d CAN");
    let mut boot = StdRng::seed_from_u64(seed);
    let mut live = DetMap::new();
    for label in 0..32u64 {
        live.insert(label, can.join(NodeIdx(label as u32), Point::random(2, &mut boot)));
    }
    let mut ecan = EcanOverlay::build(can, &mut RandomSelector::new(seed));
    let mut next_underlay = 32u32;
    for ops in scenario_batches(seed, 2) {
        for (i, op) in ops.iter().enumerate() {
            // Joins split zones out from under other nodes' expressway
            // representatives, so per-op soundness needs a full
            // reselection (tests/churn_batches.rs covers the cheaper
            // incremental repair path).
            let mut changed = false;
            match op.kind {
                ChurnOpKind::Join | ChurnOpKind::Recover => {
                    if live.get(&op.node).is_none() {
                        let id = ecan.join_unselected(
                            NodeIdx(next_underlay),
                            Point::clamped(op.point.clone()),
                        );
                        next_underlay += 1;
                        live.insert(op.node, id);
                        changed = true;
                    }
                }
                ChurnOpKind::Depart | ChurnOpKind::Crash => {
                    if let Some(id) = live.remove(&op.node) {
                        ecan.depart(id).expect("victim is live");
                        changed = true;
                    }
                }
            }
            if changed {
                ecan.reselect(&mut RandomSelector::new(op_seed(seed, i as u64)));
            }
            ecan.check_invariants();
        }
    }
    assert!(live.len() > 16);
}

#[test]
fn pastry_and_chord_invariants_hold_after_every_batch_op() {
    use tao_sim::{op_seed, ChurnOpKind};
    use tao_util::det::DetMap;
    // Tables are rebuilt per op so structural invariants are checkable
    // after every one.
    let seed = 0xbc_04;
    let mut pastry = PastryOverlay::new(8);
    let mut ring = ChordOverlay::new();
    let mut live: DetMap<u64, u64> = DetMap::new();
    let mut next_underlay = 0u32;
    let mut boot = StdRng::seed_from_u64(seed);
    for label in 0..32u64 {
        let key: u64 = boot.gen();
        pastry.join(NodeIdx(next_underlay), key);
        ring.join(NodeIdx(next_underlay), key);
        next_underlay += 1;
        live.insert(label, key);
    }
    pastry.reselect(&mut RandomPeerSelector::new(seed));
    ring.reselect(&mut RandomPeerSelector::new(seed));
    for ops in scenario_batches(seed, 2) {
        for (i, op) in ops.iter().enumerate() {
            let per_op = op_seed(seed, i as u64);
            let mut changed = false;
            match op.kind {
                ChurnOpKind::Join | ChurnOpKind::Recover => {
                    if live.get(&op.node).is_none() {
                        // Key derived from the churn label, not the
                        // batch index: indexes restart at 0 for every
                        // batch, and a repeated key would be a
                        // double-join.
                        let key: u64 = op_seed(seed, op.node);
                        pastry.join(NodeIdx(next_underlay), key);
                        ring.join(NodeIdx(next_underlay), key);
                        next_underlay += 1;
                        live.insert(op.node, key);
                        changed = true;
                    }
                }
                ChurnOpKind::Depart | ChurnOpKind::Crash => {
                    if let Some(key) = live.remove(&op.node) {
                        pastry.leave(key).expect("victim is live");
                        ring.leave(key).expect("victim is live");
                        changed = true;
                    }
                }
            }
            if changed {
                pastry.reselect(&mut RandomPeerSelector::new(per_op));
                ring.reselect(&mut RandomPeerSelector::new(per_op));
            }
            pastry.check_invariants();
            ring.check_invariants();
        }
    }
    assert!(live.len() > 16);
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
    let live: std::collections::HashSet<_> = tao.ecan().can().live_nodes().collect();
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
            !tao.state().maps().any(|m| m.entries().any(|e| e.info.node == v)),
            "{v} must be gone after TTL"
        );
    }
}
