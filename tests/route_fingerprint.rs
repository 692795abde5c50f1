//! The pinned digest of greedy routing on the CAN family.
//!
//! Every stretch the paper reports is a sum over hops, so a change to the
//! routing metric, the candidate filter or the tie-break moves figures.
//! This test digests every hop of fixed-seed routes on CAN, TA-CAN (a CAN
//! joined at landmark-binned points) and eCAN — join-only arenas, churned-and-repaired ones, and ones churned with no
//! repair at all (`join_unselected` / `depart` and never a `reselect`, so
//! tables name departed representatives and newcomers have none) — at
//! d = 2 and d = 3. The constant was taken with the per-candidate
//! `sqrt` + best-so-far loops that the hop kernel replaced.

use tao_overlay::ecan::{EcanOverlay, RandomSelector};
use tao_overlay::tacan::binned_join_point;
use tao_overlay::{CanOverlay, OverlayError, OverlayNodeId, Point, RouteScratch};
use tao_topology::NodeIdx;
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

const NODES: u32 = 320;
const CHURN: usize = 64;
const ROUTES: usize = 1_500;

/// Digest and hop count of the routes folded so far.
struct Digest {
    h: u64,
    hops: u64,
}

impl Digest {
    fn word(&mut self, v: u64) {
        self.h = (self.h ^ v).wrapping_mul(FNV_PRIME);
    }

    /// Folds `ROUTES` seeded routes through `route`: every hop of a
    /// delivered route, then its length; the stuck node of a failed one.
    fn routes(
        &mut self,
        dims: usize,
        live: &[OverlayNodeId],
        seed: u64,
        scratch: &mut RouteScratch,
        route: impl Fn(&mut RouteScratch, OverlayNodeId, &Point) -> Result<(), OverlayError>,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..ROUTES {
            let source = live[rng.gen_range(0..live.len())];
            let target = Point::random(dims, &mut rng);
            match route(scratch, source, &target) {
                Ok(()) => {
                    for hop in scratch.hops() {
                        self.word(u64::from(hop.0));
                    }
                    self.word(scratch.hops().len() as u64);
                    self.hops += scratch.hop_count() as u64;
                }
                Err(OverlayError::RoutingStuck { at }) => self.word(u64::MAX - u64::from(at.0)),
                Err(e) => panic!("live source, matching dimensionality: {e}"),
            }
        }
    }
}

fn grown_can(dims: usize, seed: u64) -> (CanOverlay, Vec<OverlayNodeId>) {
    let mut can = CanOverlay::new(dims).expect("dims > 0");
    let mut rng = StdRng::seed_from_u64(seed);
    let ids = (0..NODES)
        .map(|i| can.join(NodeIdx(i), Point::random(dims, &mut rng)))
        .collect();
    (can, ids)
}

/// `CHURN` membership steps on `ecan`, alternating a departure of a random
/// live node with a join at a random point, each through the given closure.
fn churn(
    ecan: &mut EcanOverlay,
    live: &mut Vec<OverlayNodeId>,
    seed: u64,
    mut depart: impl FnMut(&mut EcanOverlay, OverlayNodeId),
    mut join: impl FnMut(&mut EcanOverlay, NodeIdx, Point) -> OverlayNodeId,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims = ecan.can().dims();
    for step in 0..CHURN {
        if step % 4 == 3 {
            live.push(join(
                ecan,
                NodeIdx(NODES + step as u32),
                Point::random(dims, &mut rng),
            ));
        } else {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            depart(ecan, victim);
        }
    }
}

/// Prints the digest of the canonical routes and holds it to its pinned
/// value. `scripts/ci.sh` executes this test in two separate processes and
/// requires the printed lines to be identical.
#[test]
fn route_fingerprint_for_ci() {
    let mut digest = Digest {
        h: FNV_OFFSET,
        hops: 0,
    };
    let mut scratch = RouteScratch::new();
    for dims in [2usize, 3] {
        let seed = 0x2400 + dims as u64 * 0x100;

        // CAN: join-only, then the same arena after departures.
        let (mut can, mut live) = grown_can(dims, seed);
        digest.routes(dims, &live, seed + 1, &mut scratch, |s, src, t| {
            can.route_into(s, src, t)
        });
        let mut rng = StdRng::seed_from_u64(seed + 2);
        for _ in 0..CHURN {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            can.leave(victim).expect("victim is live");
        }
        digest.routes(dims, &live, seed + 3, &mut scratch, |s, src, t| {
            can.route_into(s, src, t)
        });

        // TA-CAN: landmark-binned joins skew the zones; then departures.
        let mut tacan = CanOverlay::new(dims).expect("dims > 0");
        let mut rng = StdRng::seed_from_u64(seed + 4);
        let mut live = Vec::new();
        for i in 0..NODES {
            let mut ordering: Vec<usize> = (0..4).collect();
            for j in (1..ordering.len()).rev() {
                ordering.swap(j, rng.gen_range(0..j + 1));
            }
            live.push(tacan.join(NodeIdx(i), binned_join_point(&ordering, dims, &mut rng)));
        }
        digest.routes(dims, &live, seed + 5, &mut scratch, |s, src, t| {
            tacan.route_into(s, src, t)
        });
        for _ in 0..CHURN {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            tacan.leave(victim).expect("victim is live");
        }
        digest.routes(dims, &live, seed + 6, &mut scratch, |s, src, t| {
            tacan.route_into(s, src, t)
        });

        // eCAN: join-only; churned with every table repaired as it goes;
        // churned with no repair.
        let (can, live) = grown_can(dims, seed + 7);
        let pristine = EcanOverlay::build(can, &mut RandomSelector::new(seed + 8));
        digest.routes(dims, &live, seed + 9, &mut scratch, |s, src, t| {
            pristine.route_express_into(s, src, t)
        });

        let (mut repaired, mut repaired_live) = (pristine.clone(), live.clone());
        let selector = std::cell::RefCell::new(RandomSelector::new(seed + 10));
        churn(
            &mut repaired,
            &mut repaired_live,
            seed + 11,
            |e, victim| {
                e.depart_and_repair(victim, &mut *selector.borrow_mut())
                    .expect("victim is live")
            },
            |e, underlay, point| e.join_and_select(underlay, point, &mut *selector.borrow_mut()),
        );
        repaired.check_invariants();
        digest.routes(
            dims,
            &repaired_live,
            seed + 12,
            &mut scratch,
            |s, src, t| repaired.route_express_into(s, src, t),
        );

        let (mut stale, mut stale_live) = (pristine, live);
        churn(
            &mut stale,
            &mut stale_live,
            seed + 11,
            |e, victim| e.depart(victim).expect("victim is live"),
            |e, underlay, point| e.join_unselected(underlay, point),
        );
        digest.routes(dims, &stale_live, seed + 13, &mut scratch, |s, src, t| {
            stale.route_express_into(s, src, t)
        });
    }
    let Digest { h, hops } = digest;
    println!("ROUTE_FINGERPRINT digest={h:#018x} hops={hops}");
    assert_eq!((h, hops), (0x7a94_1686_0095_312c, 96_608));
}
