//! Soft-state convergence under faults: after crash-recover schedules heal
//! and TTL-many maintenance rounds run, every region map equals the
//! ground-truth membership and no subscription is orphaned.
//!
//! The maintenance model: one `refresh_round` every `ttl / 2` of virtual
//! time (so an entry survives one lost refresh but lapses after two), with
//! the fault schedule deciding whose refreshes are lost each round.

use tao_landmark::{LandmarkGrid, LandmarkVector};
use tao_overlay::ecan::{EcanOverlay, RandomSelector};
use tao_overlay::{CanOverlay, OverlayNodeId, Point};
use tao_sim::{SimDuration, SimTime};
use tao_softstate::pubsub::{Event, Predicate, PubSub};
use tao_softstate::{refresh_round, GlobalState, NodeInfo, SoftStateConfig};
use tao_topology::NodeIdx;
use tao_util::check;
use tao_util::check::for_all;
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

const TTL_SECS: u64 = 60;

fn setup(n: u32, seed: u64) -> (EcanOverlay, GlobalState, Vec<NodeInfo>) {
    let mut can = CanOverlay::new(2).expect("2-d CAN");
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        can.join(NodeIdx(i), Point::random(2, &mut rng));
    }
    let ecan = EcanOverlay::build(can, &mut RandomSelector::new(seed ^ 1));
    let grid = LandmarkGrid::new(3, 5, SimDuration::from_millis(320)).expect("grid");
    let config = SoftStateConfig::builder(grid)
        .ttl(SimDuration::from_secs(TTL_SECS))
        .build();
    let state = GlobalState::new(config);
    let infos: Vec<NodeInfo> = (0..n)
        .map(|i| {
            let vector = LandmarkVector::from_millis(&[
                rng.gen_range(5.0..300.0),
                rng.gen_range(5.0..300.0),
                rng.gen_range(5.0..300.0),
            ]);
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
    (ecan, state, infos)
}

fn round_time(round: u64) -> SimTime {
    // Rounds every ttl / 2, starting at the origin.
    SimTime::ORIGIN + SimDuration::from_secs(round * TTL_SECS / 2)
}

#[test]
fn region_maps_reconverge_within_ttl_rounds_after_crash_recover() {
    let (ecan, mut state, infos) = setup(64, 41);
    let victims: Vec<OverlayNodeId> = [3u32, 7, 11, 19]
        .iter()
        .map(|&i| OverlayNodeId(i))
        .collect();
    // Down from round 2 through round 7 (inclusive); recovered at round 8.
    let down_rounds = 2u64..8;
    for round in 0..2u64 {
        refresh_round(&mut state, &ecan, &infos, round_time(round), |_| false);
    }
    // Baseline: with everyone refreshing, the maps mirror the membership.
    assert!(
        state
            .convergence_report(&ecan, &infos, round_time(1))
            .is_converged(),
        "pre-fault state must be converged"
    );
    for round in down_rounds.clone() {
        refresh_round(&mut state, &ecan, &infos, round_time(round), |i| {
            victims.contains(&i.node)
        });
    }
    // Deep in the outage (more than one TTL past the crash) the maps have
    // forgotten the victims: converged against the survivors...
    let survivors: Vec<NodeInfo> = infos
        .iter()
        .filter(|i| !victims.contains(&i.node))
        .cloned()
        .collect();
    let mid = state.convergence_report(&ecan, &survivors, round_time(7));
    assert!(
        mid.is_converged(),
        "survivor view diverged mid-outage: {mid:?}"
    );
    // ...and (by the same token) missing every victim entry.
    let full = state.convergence_report(&ecan, &infos, round_time(7));
    assert!(full.missing > 0, "victim entries should have lapsed");
    // Recovery: victims refresh again. Bound the repair time in rounds —
    // one ttl (= 2 rounds) after heal the state must be exact.
    let mut rounds_to_converge = None;
    for (k, round) in (8u64..12).enumerate() {
        let report = refresh_round(&mut state, &ecan, &infos, round_time(round), |_| false);
        if round == 8 {
            assert!(report.repaired > 0, "recovery round must repair entries");
        }
        if state
            .convergence_report(&ecan, &infos, round_time(round))
            .is_converged()
        {
            rounds_to_converge = Some(k + 1);
            break;
        }
    }
    let rounds = rounds_to_converge.expect("must reconverge after heal");
    assert!(
        rounds <= 2,
        "reconvergence took {rounds} rounds, bound is ttl (= 2 rounds)"
    );
}

#[test]
fn crash_stop_entries_lapse_and_orphaned_subscriptions_are_pruned() {
    let (ecan, mut state, infos) = setup(64, 43);
    let mut bus = PubSub::new();
    // Every node subscribes for departures in each of its enclosing
    // high-order zones.
    for info in &infos {
        for region in ecan.enclosing_high_order_zones(info.node) {
            bus.subscribe(&region, info.node, Predicate::NodeDeparted);
        }
    }
    let total_subs = bus.len();
    assert!(total_subs >= infos.len(), "everyone subscribed somewhere");
    let victims: Vec<OverlayNodeId> = [5u32, 23, 42].iter().map(|&i| OverlayNodeId(i)).collect();
    // Crash-stop at round 1: victims never refresh again.
    for round in 0..5u64 {
        let lost_after_crash = |i: &NodeInfo| round >= 1 && victims.contains(&i.node);
        refresh_round(
            &mut state,
            &ecan,
            &infos,
            round_time(round),
            lost_after_crash,
        );
    }
    // One TTL past the crash the maps hold survivors only.
    let survivors: Vec<NodeInfo> = infos
        .iter()
        .filter(|i| !victims.contains(&i.node))
        .cloned()
        .collect();
    let report = state.convergence_report(&ecan, &survivors, round_time(4));
    assert!(
        report.is_converged(),
        "diverged after crash-stop: {report:?}"
    );
    // The subscription registry still carries the victims' subscriptions —
    // exactly the orphans the repair path must find and drop.
    let live = |n: OverlayNodeId| !victims.contains(&n);
    assert_eq!(bus.orphaned_subscribers(live), victims, "orphans = victims");
    let pruned = bus.prune_orphans(live);
    assert!(pruned >= victims.len(), "each victim had subscriptions");
    assert_eq!(bus.len(), total_subs - pruned);
    assert!(
        bus.orphaned_subscribers(live).is_empty(),
        "orphaned-subscription count must be zero post-heal"
    );
    // Survivors' subscriptions still match events.
    let region = ecan.enclosing_high_order_zones(survivors[0].node)[0].clone();
    let notified = bus.publish(&region, &Event::NodeDeparted(victims[0]));
    assert!(
        notified.iter().all(|n| live(*n)),
        "only live subscribers fire"
    );
}

#[test]
fn convergence_is_reached_within_bounded_rounds_under_random_faults() {
    for_all(
        "convergence_is_reached_within_bounded_rounds_under_random_faults",
        8,
        |rng| {
            let n = rng.gen_range(32u32..64);
            let seed: u64 = rng.gen();
            let loss = rng.gen_range(0.0..0.3);
            let (ecan, mut state, infos) = setup(n, seed);
            let mut victims: Vec<OverlayNodeId> = (0..rng.gen_range(1u32..6))
                .map(|_| OverlayNodeId(rng.gen_range(0..n)))
                .collect();
            victims.sort();
            victims.dedup();
            let heal_round = 6u64;
            let mut frng = StdRng::seed_from_u64(seed ^ 0xF417);
            // Faulty phase: victims are down, everyone else loses refreshes
            // with probability `loss`.
            for round in 0..heal_round {
                refresh_round(&mut state, &ecan, &infos, round_time(round), |i| {
                    (round >= 1 && victims.contains(&i.node)) || frng.gen_bool(loss)
                });
            }
            // Healed phase: loss stops; TTL-many rounds must restore ground
            // truth. Bound: 2 × ttl = 4 rounds (one ttl to flush any entry
            // published by a stale refresh, one to republish everything).
            let mut converged_after = None;
            for k in 0..4u64 {
                let round = heal_round + k;
                refresh_round(&mut state, &ecan, &infos, round_time(round), |_| false);
                if state
                    .convergence_report(&ecan, &infos, round_time(round))
                    .is_converged()
                {
                    converged_after = Some(k + 1);
                    break;
                }
            }
            check!(
                converged_after.is_some(),
                "no convergence within 4 rounds (n={n}, seed={seed:#x}, loss={loss:.2})"
            );
        },
    );
}
