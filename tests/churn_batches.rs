//! Batch churn scenarios (flash crowd, stub-domain crash + recover, diurnal
//! wave, random multi-batch churn) applied in batch order to the CAN
//! harness and to an eCAN with incremental expressway repair: structural
//! invariants hold after every op, and each scenario's final digest is
//! held to a pinned constant — with and without a lossy [`FaultPlan`]
//! driving simulator traffic between batches.

use tao_core::churn::ChurnState;
use tao_overlay::ecan::{EcanOverlay, RandomSelector};
use tao_overlay::{CanOverlay, OverlayNodeId, Point};
use tao_sim::{
    op_seed, ChurnOp, ChurnOpKind, FaultPlan, NodeId, SimDuration, SimTime, Simulator,
    UniformLatency,
};
use tao_topology::NodeIdx;
use tao_util::check::case_seed;
use tao_util::det::DetMap;
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

// ---------------------------------------------------------------------------
// The CAN harness
// ---------------------------------------------------------------------------

/// Applies one batch op by op, checking the overlay after every op.
fn apply_checked(state: &mut ChurnState, ops: &[ChurnOp]) {
    for (i, op) in ops.iter().enumerate() {
        state.apply(i, op);
        state.can().check_invariants();
    }
}

/// Applies `batches` to a fresh harness and returns its final digest.
fn run_can(seed: u64, initial: u64, batches: &[Vec<ChurnOp>]) -> u64 {
    let mut state = ChurnState::new(2, seed, initial);
    for ops in batches {
        apply_checked(&mut state, ops);
        assert_eq!(state.map().entries().count(), state.live_len());
    }
    state.fingerprint()
}

#[test]
fn flash_crowd_batches_reach_the_pinned_digest() {
    let plan = FaultPlan::new(0xf1a5);
    let ops = plan.flash_crowd(2, 96, 10_000, SimTime::ORIGIN, SimDuration::from_secs(30));
    assert_eq!(run_can(0xf1a5, 32, &[ops]), 0x0c08_9927_9e7a_b3fe);
}

#[test]
fn stub_domain_crash_and_recover_reaches_the_pinned_digest() {
    let mut plan = FaultPlan::new(0xc4a5);
    // Crash labels 4..20 (live in the 32-node bootstrap), recover later.
    let domain: Vec<NodeId> = (4..20).map(NodeId).collect();
    let ops = plan.stub_domain_crash(
        2,
        &domain,
        SimTime::from_micros(1_000),
        SimTime::from_micros(50_000),
    );
    assert_eq!(run_can(0xc4a5, 32, &[ops]), 0x04ac_ff57_c48b_0187);
}

#[test]
fn diurnal_wave_batches_reach_the_pinned_digest() {
    let plan = FaultPlan::new(0xd1a7);
    let ops = plan.diurnal_wave(2, 128, 5_000, SimDuration::from_secs(86_400));
    assert_eq!(run_can(0xd1a7, 24, &[ops]), 0x76c7_bc83_338d_ad82);
}

/// Random multi-batch churn (joins, departs of known and unknown labels,
/// duplicate joins): 24 seeded cases, their final digests folded into one.
#[test]
fn random_churn_batches_reach_the_pinned_digest() {
    let mut folded = FNV_OFFSET;
    for case in 0..24 {
        let mut rng = StdRng::seed_from_u64(case_seed(case));
        let seed = rng.gen();
        let initial = rng.gen_range(8..32u64);
        let mut next_label = initial;
        let batches: Vec<Vec<ChurnOp>> = (0..rng.gen_range(1..4usize))
            .map(|_| {
                (0..rng.gen_range(1..48usize))
                    .map(|_| {
                        let kind = match rng.gen_range(0..4u8) {
                            0 => ChurnOpKind::Join,
                            1 => ChurnOpKind::Depart,
                            2 => ChurnOpKind::Crash,
                            _ => ChurnOpKind::Recover,
                        };
                        let node = match kind {
                            ChurnOpKind::Join => {
                                next_label += 1;
                                next_label
                            }
                            // Mostly-live victims, sometimes unknown ones,
                            // sometimes re-joins of live labels.
                            _ => rng.gen_range(0..next_label + 4),
                        };
                        let point = match kind {
                            ChurnOpKind::Depart | ChurnOpKind::Crash => Vec::new(),
                            _ => (0..2).map(|_| rng.gen_range(0.0..1.0)).collect(),
                        };
                        ChurnOp {
                            kind,
                            at: SimTime::ORIGIN,
                            node,
                            point,
                        }
                    })
                    .collect()
            })
            .collect();
        folded = fnv(folded, run_can(seed, initial, &batches));
    }
    assert_eq!(folded, 0x84a0_a79c_a847_dc44);
}

// ---------------------------------------------------------------------------
// Simulator traffic under a lossy fault plan, between batches
// ---------------------------------------------------------------------------

/// A plan that generated the batches keeps judging message traffic between
/// them: generating batches draws nothing from the plan's drop/jitter
/// stream, and applying them touches no simulator state, so both the
/// churn digest and the delivery digest are pinned.
#[test]
fn batches_around_lossy_simulator_traffic_reach_the_pinned_digests() {
    let mut plan = FaultPlan::new(0x10_55);
    let ops = plan.flash_crowd(2, 48, 2_000, SimTime::ORIGIN, SimDuration::from_secs(5));
    let domain: Vec<NodeId> = (2..10).map(NodeId).collect();
    let crash = plan.stub_domain_crash(
        2,
        &domain,
        SimTime::from_micros(500),
        SimTime::from_micros(9_000),
    );
    let mut sim: Simulator<u32, _> =
        Simulator::new(UniformLatency::new(SimDuration::from_millis(2)));
    for _ in 0..16 {
        sim.add_node();
    }
    sim.set_fault_plan(plan);
    let mut state = ChurnState::new(2, 0x10_55, 16);
    apply_checked(&mut state, &ops);
    for i in 0..8u32 {
        sim.send(NodeId(i as usize), NodeId(((i + 1) % 8) as usize), i);
    }
    let mut delivered = FNV_OFFSET;
    while sim
        .step(|_, at, msg| {
            delivered = fnv(delivered, at.0 as u64 ^ (u64::from(msg.payload) << 32));
        })
        .is_some()
    {}
    apply_checked(&mut state, &crash);
    assert_eq!(
        (state.fingerprint(), delivered),
        (0x5aa0_4572_4368_43fb, 0x082f_2054_b4e8_8cc4)
    );
}

// ---------------------------------------------------------------------------
// eCAN harness (expressway tables repaired per departure)
// ---------------------------------------------------------------------------

struct EcanState {
    ecan: EcanOverlay,
    live: DetMap<u64, OverlayNodeId>,
    next_underlay: u32,
    master_seed: u64,
}

impl EcanState {
    fn new(seed: u64, initial: u64) -> Self {
        let mut can = CanOverlay::new(2).expect("2-d CAN");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut live = DetMap::new();
        for label in 0..initial {
            let id = can.join(NodeIdx(label as u32), Point::random(2, &mut rng));
            live.insert(label, id);
        }
        let ecan = EcanOverlay::build(can, &mut RandomSelector::new(seed ^ 0xec));
        EcanState {
            ecan,
            live,
            next_underlay: initial as u32,
            master_seed: seed,
        }
    }

    fn apply(&mut self, i: usize, op: &ChurnOp) {
        let per_op = op_seed(self.master_seed, i as u64);
        match op.kind {
            ChurnOpKind::Join | ChurnOpKind::Recover => {
                if self.live.get(&op.node).is_none() {
                    let id = self
                        .ecan
                        .join_unselected(NodeIdx(self.next_underlay), Point::clamped(op.point.clone()));
                    self.next_underlay += 1;
                    self.live.insert(op.node, id);
                    self.ecan
                        .reselect_node(id, &mut RandomSelector::new(per_op));
                }
            }
            ChurnOpKind::Depart | ChurnOpKind::Crash => {
                if let Some(id) = self.live.remove(&op.node) {
                    self.ecan
                        .depart_and_repair(id, &mut RandomSelector::new(per_op))
                        .expect("victim is live");
                }
            }
        }
    }

    fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for (&label, &id) in self.live.iter() {
            h = fnv(h, label);
            h = fnv(h, u64::from(id.0));
            for z in self.ecan.can().zones(id).unwrap_or_default() {
                for axis in 0..z.dims() {
                    h = fnv(h, z.lo(axis).to_bits());
                    h = fnv(h, z.hi(axis).to_bits());
                }
            }
            for nb in self.ecan.can().neighbors(id).unwrap_or_default() {
                h = fnv(h, u64::from(nb.0));
            }
            for byte in format!("{:?}", self.ecan.high_order_entries(id)).bytes() {
                h = fnv(h, u64::from(byte));
            }
        }
        h
    }
}

/// eCAN batches, where a join selects only the new node's expressway
/// entries and a departure repairs only its dependents' tables, each with
/// a per-op selector RNG.
#[test]
fn ecan_churn_batches_reach_the_pinned_digest() {
    let plan = FaultPlan::new(0xeca4);
    let wave = plan.diurnal_wave(2, 96, 4_000, SimDuration::from_secs(3_600));
    let mut state = EcanState::new(0xeca4, 40);
    for (i, op) in wave.iter().enumerate() {
        state.apply(i, op);
        state.ecan.check_invariants();
    }
    assert_eq!(state.fingerprint(), 0x1019_d851_587b_4c3e);
}

// ---------------------------------------------------------------------------
// Cross-process fingerprint for scripts/ci.sh
// ---------------------------------------------------------------------------

/// Prints the digest of a canonical three-scenario churn run and holds it
/// to its pinned value. `scripts/ci.sh` executes this test in two separate
/// processes and requires the printed lines to be identical.
#[test]
fn churn_fingerprint_for_ci() {
    let mut plan = FaultPlan::new(0xc1);
    let domain: Vec<NodeId> = (8..24).map(NodeId).collect();
    let batches = [
        plan.flash_crowd(2, 64, 1_000, SimTime::ORIGIN, SimDuration::from_secs(20)),
        plan.stub_domain_crash(
            2,
            &domain,
            SimTime::from_micros(2_000),
            SimTime::from_micros(80_000),
        ),
        plan.diurnal_wave(2, 64, 2_000, SimDuration::from_secs(43_200)),
    ];
    let digest = run_can(0xc1, 48, &batches);
    let ops: usize = batches.iter().map(Vec::len).sum();
    println!("CHURN_FINGERPRINT digest={digest:#018x} ops={ops}");
    assert_eq!((digest, ops), (0x028c_dbbf_47c4_7a24, 160));
}
