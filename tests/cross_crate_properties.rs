//! Property-based tests that span crate boundaries: landmark numbers vs
//! physical distance, region positions vs map placement, overlay routing
//! over arbitrary join sequences.

use tao_landmark::{
    region_position, LandmarkGrid, LandmarkNumber, LandmarkVector, SpaceFillingCurve,
};
use tao_overlay::{CanOverlay, Point, RouteScratch, Zone};
use tao_sim::SimDuration;
use tao_topology::NodeIdx;
use tao_util::check::for_all;
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};
use tao_util::{check, check_eq};

/// Landmark numbers from the same grid cell are identical; vectors in
/// cells far apart along every axis produce different numbers.
#[test]
fn landmark_numbers_respect_grid_cells() {
    for_all("landmark_numbers_respect_grid_cells", 64, |rng| {
        let a: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..300.0)).collect();
        let jitter: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..0.5)).collect();
        let grid = LandmarkGrid::new(3, 5, SimDuration::from_millis(320)).expect("valid grid");
        let va = LandmarkVector::from_millis(&a);
        // A sub-cell jitter (cells are 10 ms wide) cannot change the number
        // unless the vector crosses a cell boundary; verify via cells.
        let b: Vec<f64> = a.iter().zip(&jitter).map(|(x, j)| x + j).collect();
        let vb = LandmarkVector::from_millis(&b);
        if grid.cell(&va) == grid.cell(&vb) {
            check_eq!(
                grid.landmark_number(&va, SpaceFillingCurve::Hilbert),
                grid.landmark_number(&vb, SpaceFillingCurve::Hilbert),
                "a={a:?} b={b:?}"
            );
        }
    });
}

/// The region hash lands inside the unit box for any number/bits combo.
#[test]
fn region_positions_stay_in_bounds() {
    for_all("region_positions_stay_in_bounds", 64, |rng| {
        let raw: u64 = rng.gen();
        let dims = rng.gen_range(2usize..4);
        let resolution = rng.gen_range(2u32..9);
        let p = region_position(
            LandmarkNumber::new(raw as u128),
            64,
            dims,
            resolution,
            SpaceFillingCurve::Hilbert,
        );
        check_eq!(p.len(), dims);
        for x in p {
            check!((0.0..1.0).contains(&x), "raw={raw:#x} dims={dims} x={x}");
        }
    });
}

/// For any join sequence, CAN routing from any node reaches the owner
/// of any target.
#[test]
fn routing_always_reaches_the_owner() {
    for_all("routing_always_reaches_the_owner", 64, |rng| {
        let seed: u64 = rng.gen();
        let n = rng.gen_range(2usize..40);
        let mut can = CanOverlay::new(2).expect("2-d CAN");
        let mut join_rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            can.join(NodeIdx(i as u32), Point::random(2, &mut join_rng));
        }
        let live: Vec<_> = can.live_nodes().collect();
        let mut scratch = RouteScratch::new();
        for _ in 0..5 {
            let (qa, qb): (u64, u64) = (rng.gen(), rng.gen());
            let src = live[(qa % live.len() as u64) as usize];
            let target = Point::clamped(vec![
                (qb % 10_000) as f64 / 10_000.0,
                (qb / 10_000 % 10_000) as f64 / 10_000.0,
            ]);
            can.route_into(&mut scratch, src, &target)
                .expect("routing succeeds");
            check_eq!(
                scratch.hops().last(),
                Some(&can.owner(&target)),
                "seed={seed:#x} n={n}"
            );
        }
    });
}

/// Zone splitting preserves exact volume and containment at any depth.
#[test]
fn repeated_splits_partition_exactly() {
    for_all("repeated_splits_partition_exactly", 64, |rng| {
        let path: Vec<bool> = (0..rng.gen_range(1usize..40)).map(|_| rng.gen()).collect();
        let mut zone = Zone::whole(3);
        for (depth, take_upper) in path.into_iter().enumerate() {
            let axis = depth % 3;
            let (lo, hi) = zone.split(axis);
            check!((lo.volume() + hi.volume() - zone.volume()).abs() < 1e-15);
            check!(zone.contains_zone(&lo) && zone.contains_zone(&hi));
            check!(lo.is_neighbor(&hi));
            zone = if take_upper { hi } else { lo };
        }
        check!(zone.volume() > 0.0);
    });
}

/// The landmark ordering is always a permutation, and projecting the
/// vector preserves component values.
#[test]
fn orderings_are_permutations() {
    for_all("orderings_are_permutations", 64, |rng| {
        let ms: Vec<f64> = (0..rng.gen_range(1usize..12))
            .map(|_| rng.gen_range(0.0..500.0))
            .collect();
        let v = LandmarkVector::from_millis(&ms);
        let mut ord = v.ordering();
        ord.sort_unstable();
        check_eq!(ord, (0..ms.len()).collect::<Vec<_>>(), "ms={ms:?}");
    });
}

#[test]
fn landmark_locality_transfers_to_map_positions() {
    // Deterministic cross-crate check: nodes in the same stub (physically
    // close) receive closer map positions than nodes in different transit
    // domains, on average.
    use tao_topology::landmarks::{select_landmarks, LandmarkStrategy};
    use tao_topology::{generate_transit_stub, LatencyAssignment, RttOracle, TransitStubParams};

    let topo = generate_transit_stub(
        &TransitStubParams::tsk_large_mini(),
        LatencyAssignment::manual(),
        31,
    );
    let oracle = RttOracle::new(topo.graph().clone());
    let mut rng = StdRng::seed_from_u64(32);
    let landmarks = select_landmarks(topo.graph(), 8, LandmarkStrategy::Random, &mut rng);
    oracle.warm(&landmarks);
    let grid = LandmarkGrid::new(3, 5, SimDuration::from_millis(600)).expect("valid grid");

    let position = |n: NodeIdx| -> Vec<f64> {
        let v = LandmarkVector::measure(n, &landmarks, &oracle);
        let num = grid.landmark_number(&v, SpaceFillingCurve::Hilbert);
        region_position(num, grid.number_bits(), 2, 8, SpaceFillingCurve::Hilbert)
    };
    let dist = |a: &[f64], b: &[f64]| -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    };

    let mut same_stub = 0.0;
    let mut cross_domain = 0.0;
    let mut samples = 0;
    for s in 0..topo.stub_domain_count().min(16) as u32 {
        let members = topo.stub_members(s);
        let pa = position(members[0]);
        let pb = position(members[1]);
        same_stub += dist(&pa, &pb);
        // A node from a stub half the domains away.
        let far_stub = (s + topo.stub_domain_count() as u32 / 2) % topo.stub_domain_count() as u32;
        let pf = position(topo.stub_members(far_stub)[0]);
        cross_domain += dist(&pa, &pf);
        samples += 1;
    }
    assert!(samples >= 8);
    assert!(
        same_stub < cross_domain,
        "same-stub map distance ({same_stub:.3}) should be below cross-domain ({cross_domain:.3})"
    );
}
